"""The physical optimizer: query tree (declarative) -> plan (operators).

This is the "cost estimation technique" component of the CBQT framework
(§3.1): every transformation state is costed by invoking this optimizer
on the transformed tree.  It optimizes bottom-up — derived tables and
subquery bodies first — reusing cost annotations for sub-trees it has
seen before, and supports a cost budget (cost cut-off, §3.4.1): when the
accumulated cost of a state exceeds the best complete state found so far,
optimization of that state aborts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..catalog.schema import Catalog
from ..catalog.statistics import ColumnStats, StatisticsRegistry, TableStats
from ..errors import OptimizerError
from ..qtree import signature
from ..qtree.blocks import FromItem, QueryBlock, QueryNode, SetOpBlock
from ..qtree.sqlgen import rendered_once
from ..sql import ast
from .access_paths import base_table_paths
from .annotations import AnnotationStore
from .costmodel import DEFAULT_COST_MODEL, CostModel
from .join_order import (
    DEFAULT_DP_THRESHOLD,
    JoinOrderEnumerator,
    PendingFilter,
    Relation,
)
from .memo import MemoSession
from .plans import (
    Distinct,
    Filter,
    GroupBy,
    Limit,
    Plan,
    Project,
    SetOp,
    Sort,
    ViewScan,
    WindowCompute,
)
from .predicates import ConjunctFacts, PredicateAnalysis
from .selectivity import conjunct_selectivity, conjuncts_selectivity


class CostBudgetExceeded(OptimizerError):
    """Raised when a state's cost passes the incumbent best (cost cut-off)."""


@dataclass
class OptimizerCounters:
    """Bookkeeping the benchmarks report (Table 1 uses blocks_optimized)."""

    blocks_optimized: int = 0
    annotation_hits: int = 0
    #: *fresh* join-order enumerations: incremented only when
    #: JoinOrderEnumerator actually runs, so a join-tier memo hit — the
    #: expensive work CBQT states redo without it — does not count.
    join_orders_considered: int = 0

    def reset(self) -> None:
        self.blocks_optimized = 0
        self.annotation_hits = 0
        self.join_orders_considered = 0


class BlockStatsContext:
    """StatsContext over the aliases of one block (plus anything visible
    through it being absent: unknown aliases resolve to no stats, which is
    exactly right for outer-correlation parameters)."""

    def __init__(self, alias_stats: dict[str, Optional[TableStats]]):
        self._alias_stats = alias_stats

    def column_stats(self, alias: str, column: str) -> Optional[ColumnStats]:
        stats = self._alias_stats.get(alias)
        if stats is None:
            return None
        if column == "rowid":
            # ROWID is unique per row by construction.
            return ColumnStats(num_distinct=max(stats.row_count, 1))
        return stats.column(column)

    def table_stats(self, alias: str) -> Optional[TableStats]:
        return self._alias_stats.get(alias)


class PhysicalOptimizer:
    """Plans query trees; one instance per Database, shared by CBQT."""

    def __init__(
        self,
        catalog: Catalog,
        statistics: StatisticsRegistry,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        annotations: Optional[AnnotationStore] = None,
        counters: Optional[OptimizerCounters] = None,
        dp_threshold: int = DEFAULT_DP_THRESHOLD,
        stats_sampler=None,
        memo: Optional[MemoSession] = None,
    ):
        self._catalog = catalog
        self._statistics = statistics
        self._cm = cost_model
        # explicit None check: an empty AnnotationStore is falsy (__len__)
        self.annotations = (
            annotations if annotations is not None else AnnotationStore()
        )
        self.counters = counters if counters is not None else OptimizerCounters()
        self._dp_threshold = dp_threshold
        #: optional callable(table_name) -> TableStats for tables without
        #: collected statistics (dynamic sampling; cached per §3.4.4)
        self._stats_sampler = stats_sampler
        #: statement-scoped view of the cross-statement subplan memo;
        #: None means memo-off (statement uses peeked binds, the feature
        #: is disabled, or a direct construction such as the benches)
        self.memo = memo
        #: ``id(node) -> (node, correlation refs)`` for the duration of
        #: one :meth:`optimize` call, during which the tree is not mutated
        self._correlation: Optional[dict[int, tuple[QueryNode, list]]] = None

    # -- public ------------------------------------------------------------

    def optimize(self, node: QueryNode, budget: Optional[float] = None) -> Plan:
        """Produce the cheapest plan for *node*.

        Raises :class:`CostBudgetExceeded` if no plan within *budget*
        exists (used by the CBQT cost cut-off).
        """
        self._correlation = {}
        try:
            with rendered_once():
                plan = self._optimize_node(node, budget)
        finally:
            self._correlation = None
        if budget is not None and plan.cost > budget:
            raise CostBudgetExceeded(
                f"plan cost {plan.cost:.0f} exceeds budget {budget:.0f}"
            )
        return plan

    def _correlation_refs(self, node: QueryNode) -> list[ast.ColumnRef]:
        """``node.correlation_refs()``, traversing each subtree once per
        :meth:`optimize` call."""
        cache = self._correlation
        if cache is None:
            return node.correlation_refs()
        entry = cache.get(id(node))
        if entry is None:
            entry = cache[id(node)] = (node, node.correlation_refs())
        return entry[1]

    # -- dispatch ------------------------------------------------------------

    def _optimize_node(self, node: QueryNode, budget: Optional[float]) -> Plan:
        sig = signature(node)
        cached = self.annotations.get(sig)
        if cached is not None:
            self.counters.annotation_hits += 1
            return cached
        memo = self.memo
        if memo is not None:
            shared = memo.get(sig)
            if shared is not None:
                # Promote into the statement-local store so further uses
                # within this statement hit without a memo lookup.
                self.annotations.put(sig, shared)
                return shared
        if isinstance(node, SetOpBlock):
            plan = self._optimize_setop(node, budget)
        elif isinstance(node, QueryBlock):
            plan = self._optimize_block(node, budget)
        else:
            raise OptimizerError(f"cannot optimize {type(node).__name__}")
        self.annotations.put(sig, plan)
        if memo is not None and (budget is None or plan.cost <= budget):
            # Within-budget plans are the true unbudgeted optimum (DP
            # costs are monotone), so they are safe to reuse anywhere;
            # over-budget plans never reach here (the block raises).
            memo.put(sig, plan)
        return plan

    def _optimize_setop(self, node: SetOpBlock, budget: Optional[float]) -> Plan:
        branches = [self._optimize_node(b, budget) for b in node.branches]
        cost = sum(b.cost for b in branches)
        cm = self._cm
        if node.op == "UNION ALL":
            card = sum(b.cardinality for b in branches)
            cost += card * cm.pipeline_row
        elif node.op == "UNION":
            total = sum(b.cardinality for b in branches)
            card = total * 0.7
            cost += cm.hash_build_cost(total)
        elif node.op == "INTERSECT":
            left, right = branches
            card = min(left.cardinality, right.cardinality) * 0.5
            cost += cm.hash_build_cost(right.cardinality)
            cost += cm.hash_probe_cost(left.cardinality)
        else:  # MINUS
            left, right = branches
            card = left.cardinality * 0.5
            cost += cm.hash_build_cost(right.cardinality)
            cost += cm.hash_probe_cost(left.cardinality)
        plan: Plan = SetOp(node.op, branches, cost, card)
        if node.order_by:
            plan = Sort(
                plan, node.order_by, plan.cost + cm.sort_cost(card), card
            )
        return plan

    # -- block planning -----------------------------------------------------------

    def _optimize_block(self, block: QueryBlock, budget: Optional[float]) -> Plan:
        self.counters.blocks_optimized += 1
        cm = self._cm
        local_aliases = block.aliases()
        # every later stage asks the same conjuncts the same questions
        # (aliases referenced, subquery inside?): answer them once
        analysis = PredicateAnalysis(local_aliases, self._correlation_refs)

        plain: list[ConjunctFacts] = []
        subquery_conjuncts: list[ConjunctFacts] = []
        expensive_conjuncts: list[ConjunctFacts] = []
        for facts in map(analysis.facts, block.where_conjuncts):
            if facts.has_subquery:
                subquery_conjuncts.append(facts)
            elif self._expensive_call_cost(facts.conjunct) > 0.0:
                # Expensive (procedural / user-defined) predicates are
                # never embedded in scans; they are costed per row so the
                # predicate-pullup transformation (§2.2.6) has a real
                # trade-off to optimize.
                expensive_conjuncts.append(facts)
            else:
                plain.append(facts)

        alias_stats: dict[str, Optional[TableStats]] = {}
        relations: list[Relation] = []
        non_inner = analysis.mask_of(
            item.alias for item in block.from_items if not item.is_inner
        )
        # First pass: stats for base tables so view planning can use them.
        for item in block.from_items:
            if item.is_base_table:
                alias_stats[item.alias] = self._table_stats(item.table_name)
        stats_ctx = BlockStatsContext(alias_stats)

        for item in block.from_items:
            if item.is_base_table:
                # WHERE conjuncts referencing a null-supplying (LEFT) item
                # filter *after* the outer join; only the ON condition may
                # be embedded in its access path.
                if item.is_inner:
                    bit = analysis.bits[item.alias]
                    relevant = [
                        f.conjunct for f in plain if f.mask & bit
                    ] + item.join_conjuncts
                else:
                    relevant = list(item.join_conjuncts)
                paths = base_table_paths(
                    item.alias,
                    self._catalog.table(item.table_name),
                    alias_stats[item.alias],
                    relevant,
                    analysis,
                    stats_ctx,
                    cm,
                )
            else:
                paths = [
                    self._plan_view(item, analysis, plain, stats_ctx, budget)
                ]
                alias_stats[item.alias] = self._derive_view_stats(
                    item.subquery, paths[0]
                )
            relations.append(
                Relation(
                    item.alias,
                    paths,
                    item.join_type,
                    [c.clone() for c in item.join_conjuncts],
                    item.required_predecessors() & local_aliases,
                )
            )

        join_conjuncts: list[ast.Expr] = []
        pending: list[PendingFilter] = []
        for facts in plain:
            mask = facts.mask
            several = mask & (mask - 1)  # references two or more aliases
            if several and not mask & non_inner:
                join_conjuncts.append(facts.conjunct)
            elif several or mask & non_inner or not mask:
                # References a null-supplying side (apply after that
                # join), or no alias of the block at all.
                pending.append(
                    PendingFilter(
                        facts.conjunct,
                        analysis.names(mask),
                        conjunct_selectivity(facts.conjunct, stats_ctx),
                        cm.predicate_eval,
                    )
                )
            # single-alias conjuncts were embedded in access paths

        for facts in expensive_conjuncts:
            conjunct = facts.conjunct
            pending.append(
                PendingFilter(
                    conjunct,
                    analysis.names(facts.mask),
                    conjunct_selectivity(conjunct, stats_ctx),
                    self._cm.predicate_eval + self._expensive_call_cost(conjunct),
                )
            )

        for facts in subquery_conjuncts:
            pending.append(
                self._subquery_filter(facts, analysis, stats_ctx, budget)
            )

        memo = self.memo
        join_key: Optional[str] = None
        plan: Optional[Plan] = None
        if memo is not None:
            join_key = _join_core_key(block, local_aliases, self._dp_threshold)
            plan = memo.join_get(join_key)
        if plan is None:
            enumerator = JoinOrderEnumerator(
                relations,
                join_conjuncts,
                pending,
                stats_ctx,
                cm,
                self._dp_threshold,
                budget,
                analysis,
            )
            plan = enumerator.best_plan()
            self.counters.join_orders_considered += 1
            if memo is not None and join_key is not None and (
                budget is None or plan.cost <= budget
            ):
                memo.join_put(join_key, plan)

        if block.rownum_limit is not None:
            fraction = min(
                1.0, block.rownum_limit / max(plan.cardinality, 1.0)
            )
            card = min(plan.cardinality, float(block.rownum_limit))
            plan = Limit(
                plan, block.rownum_limit, _stopkey_cost(plan, fraction), card
            )

        needs_grouping = bool(block.group_by) or block.has_aggregates
        if needs_grouping:
            plan = self._add_group_by(block, plan, stats_ctx)

        windows = self._collect_windows(block)
        if windows:
            cost = plan.cost + cm.sort_cost(plan.cardinality) * len(windows) \
                + plan.cardinality * cm.window_row * len(windows)
            plan = WindowCompute(plan, windows, cost, plan.cardinality)

        plan = self._add_project(block, plan, stats_ctx, budget)

        if block.distinct:
            card = self._distinct_cardinality(block, plan, stats_ctx)
            plan = Distinct(
                plan, plan.cost + cm.hash_build_cost(plan.cardinality), card
            )

        if block.order_by:
            plan = Sort(
                plan,
                block.order_by,
                plan.cost + cm.sort_cost(plan.cardinality),
                plan.cardinality,
            )

        if budget is not None and plan.cost > budget:
            raise CostBudgetExceeded(
                f"block {block.name} cost {plan.cost:.0f} exceeds budget"
            )
        return plan

    # -- views -------------------------------------------------------------------

    def _plan_view(
        self,
        item: FromItem,
        analysis: PredicateAnalysis,
        plain: list[ConjunctFacts],
        stats_ctx: BlockStatsContext,
        budget: Optional[float],
    ) -> ViewScan:
        subplan = self._optimize_node(item.subquery, budget)
        correlation_keys = sorted({
            (ref.qualifier, ref.name)
            for ref in self._correlation_refs(item.subquery)
            if ref.qualifier
        })
        lateral_refs = {
            qualifier for qualifier, _name in correlation_keys
            if qualifier in analysis.bits
        }
        # the WHERE conjuncts over this view alone filter its output
        bit = analysis.bits[item.alias]
        local = [
            f.conjunct for f in plain if item.is_inner and f.mask == bit
        ]
        sel = conjuncts_selectivity(local, stats_ctx)
        cm = self._cm
        if lateral_refs:
            # Re-executed per outer row: cost is per probe.
            cost = subplan.cost + subplan.cardinality * cm.pipeline_row
        else:
            cost = subplan.cost + subplan.cardinality * cm.materialise_row
        card = subplan.cardinality * sel
        return ViewScan(
            item.alias,
            subplan,
            item.output_columns(),
            lateral_refs,
            local,
            cost,
            card,
            correlation_keys=correlation_keys,
        )

    def _derive_view_stats(self, node: QueryNode, plan: Plan) -> TableStats:
        """Synthesise statistics for a derived table from its sub-plan."""
        row_count = int(max(plan.cardinality, 0))
        stats = TableStats(row_count=row_count)
        if isinstance(node, QueryBlock):
            inner_stats: dict[str, Optional[TableStats]] = {}
            for item in node.from_items:
                if item.is_base_table:
                    inner_stats[item.alias] = self._table_stats(item.table_name)
            for name, item in zip(node.output_columns(), node.select_items):
                expr = item.expr
                col = ColumnStats(num_distinct=max(1, row_count // 2))
                if isinstance(expr, ast.ColumnRef) and expr.qualifier in inner_stats:
                    source = inner_stats[expr.qualifier]
                    source_col = source.column(expr.name) if source else None
                    if source_col is not None:
                        col = ColumnStats(
                            num_distinct=min(
                                source_col.num_distinct, max(row_count, 1)
                            ),
                            num_nulls=0,
                            min_value=source_col.min_value,
                            max_value=source_col.max_value,
                            histogram=source_col.histogram,
                        )
                elif ast.contains_aggregate(expr):
                    col = ColumnStats(num_distinct=max(1, row_count))
                stats.columns[name] = col
        else:
            for name in node.output_columns():
                stats.columns[name] = ColumnStats(
                    num_distinct=max(1, row_count // 2)
                )
        return stats

    # -- TIS subquery filters -------------------------------------------------------

    def _subquery_filter(
        self,
        facts: ConjunctFacts,
        analysis: PredicateAnalysis,
        stats_ctx: BlockStatsContext,
        budget: Optional[float],
    ) -> PendingFilter:
        """Cost a conjunct containing subqueries, evaluated row-at-a-time
        (tuple iteration semantics) with correlation-value caching."""
        cm = self._cm
        per_row = cm.predicate_eval
        conjunct = facts.conjunct
        for node in conjunct.walk():
            if not isinstance(node, ast.SubqueryExpr):
                continue
            if not isinstance(node.query, QueryNode):
                raise OptimizerError("subquery was not built into a query tree")
            subplan = self._optimize_node(node.query, budget)
            corr = [
                ref for ref in self._correlation_refs(node.query)
                if ref.qualifier in analysis.bits
            ]
            if not corr:
                # Uncorrelated: executed once, then probed from cache.
                per_row += cm.tis_cache_probe
                per_row += subplan.cost / 10_000.0  # amortised one-time cost
                continue
            ndv = 1.0
            outer_card = 1.0
            for ref in corr:
                col_stats = stats_ctx.column_stats(ref.qualifier, ref.name)
                tbl_stats = stats_ctx.table_stats(ref.qualifier)
                if col_stats is not None and col_stats.num_distinct:
                    ndv *= col_stats.num_distinct
                if tbl_stats is not None:
                    outer_card = max(outer_card, float(tbl_stats.row_count))
            cache_factor = min(1.0, ndv / max(outer_card, 1.0))
            per_row += cm.tis_cache_probe + subplan.cost * cache_factor
        return PendingFilter(
            conjunct,
            analysis.names(facts.mask),
            self._subquery_conjunct_selectivity(conjunct, stats_ctx),
            per_row,
        )

    def _subquery_conjunct_selectivity(
        self, conjunct: ast.Expr, stats_ctx: BlockStatsContext
    ) -> float:
        """Selectivity of a subquery conjunct; sharper than the generic
        defaults when it is a bare ``col IN (subquery)``: the match
        probability is |subquery| / NDV(col)."""
        if (
            isinstance(conjunct, ast.SubqueryExpr)
            and conjunct.kind == "IN"
            and isinstance(conjunct.left, ast.ColumnRef)
            and conjunct.left.qualifier
            and isinstance(conjunct.query, QueryNode)
        ):
            col_stats = stats_ctx.column_stats(
                conjunct.left.qualifier, conjunct.left.name
            )
            if col_stats is not None and col_stats.num_distinct:
                try:
                    subplan = self._optimize_node(conjunct.query, None)
                except OptimizerError:
                    subplan = None
                if subplan is not None:
                    # assume subquery values overlap the column's domain
                    sel = min(
                        1.0, subplan.cardinality / col_stats.num_distinct
                    )
                    sel = max(sel, 1e-4)
                    return (1.0 - sel) if conjunct.negated else sel
        return conjunct_selectivity(conjunct, stats_ctx)

    # -- post-join stages -------------------------------------------------------------

    def _add_group_by(
        self, block: QueryBlock, plan: Plan, stats_ctx: BlockStatsContext
    ) -> Plan:
        cm = self._cm
        aggregates = _collect_aggregate_calls(block)
        groups = self._group_cardinality(block.group_by, plan, stats_ctx)
        n_sets = len(block.grouping_sets) if block.grouping_sets else 1
        if block.grouping_sets:
            # one aggregation pass per set; output is the per-set sum,
            # roughly bounded by n_sets * full-grouping cardinality
            groups = sum(
                self._group_cardinality(
                    [block.group_by[i] for i in s], plan, stats_ctx
                )
                for s in block.grouping_sets
            )
        cost = (
            plan.cost
            + plan.cardinality * cm.agg_row * max(len(aggregates), 1) * n_sets
            + groups * cm.pipeline_row
        )
        plan = GroupBy(plan, block.group_by, aggregates, cost, groups,
                       grouping_sets=block.grouping_sets)
        if block.having_conjuncts:
            sel = 1.0
            for conjunct in block.having_conjuncts:
                sel *= conjunct_selectivity(conjunct, stats_ctx)
            plan = Filter(
                plan,
                block.having_conjuncts,
                plan.cost
                + plan.cardinality * cm.predicate_eval
                * len(block.having_conjuncts),
                plan.cardinality * sel,
            )
        return plan

    def _group_cardinality(
        self,
        group_by: list[ast.Expr],
        plan: Plan,
        stats_ctx: BlockStatsContext,
    ) -> float:
        if not group_by:
            return 1.0
        ndv = 1.0
        for expr in group_by:
            if isinstance(expr, ast.ColumnRef) and expr.qualifier:
                col_stats = stats_ctx.column_stats(expr.qualifier, expr.name)
                ndv *= (
                    col_stats.num_distinct
                    if col_stats and col_stats.num_distinct
                    else max(plan.cardinality / 10.0, 1.0)
                )
            else:
                ndv *= max(plan.cardinality / 10.0, 1.0)
        return max(1.0, min(ndv, plan.cardinality))

    def _distinct_cardinality(
        self, block: QueryBlock, plan: Plan, stats_ctx: BlockStatsContext
    ) -> float:
        return self._group_cardinality(
            [item.expr for item in block.select_items], plan, stats_ctx
        )

    def _collect_windows(self, block: QueryBlock) -> list[ast.WindowFunc]:
        windows: list[ast.WindowFunc] = []
        seen: set[str] = set()
        from ..sql.render import render_expr

        for item in block.select_items:
            for node in item.expr.walk():
                if isinstance(node, ast.WindowFunc):
                    key = render_expr(node)
                    if key not in seen:
                        seen.add(key)
                        windows.append(node)
        return windows

    def _add_project(
        self,
        block: QueryBlock,
        plan: Plan,
        stats_ctx: BlockStatsContext,
        budget: Optional[float],
    ) -> Plan:
        cm = self._cm
        cost = plan.cost + plan.cardinality * cm.pipeline_row
        for item in block.select_items:
            for node in item.expr.walk():
                if isinstance(node, ast.SubqueryExpr) and isinstance(
                    node.query, QueryNode
                ):
                    subplan = self._optimize_node(node.query, budget)
                    cost += plan.cardinality * cm.tis_cache_probe \
                        + subplan.cost
                if isinstance(node, ast.FuncCall) and \
                        self._catalog.is_expensive_function(node.name):
                    cost += plan.cardinality * self._catalog.function_cost(
                        node.name
                    )
        return Project(plan, block.select_items, cost, plan.cardinality)

    def _expensive_call_cost(self, expr: ast.Expr) -> float:
        """Total per-row cost of expensive function calls in *expr*."""
        cost = 0.0
        for node in expr.walk():
            if isinstance(node, ast.FuncCall) and \
                    self._catalog.is_expensive_function(node.name):
                cost += self._catalog.function_cost(node.name)
        return cost

    # -- statistics access ---------------------------------------------------------

    def _table_stats(self, table_name: str) -> Optional[TableStats]:
        stats = self._statistics.get(table_name)
        if stats is not None:
            return stats
        if self._stats_sampler is not None:
            return self._stats_sampler(table_name)
        return None


def _join_core_key(
    block: QueryBlock, local_aliases: set[str], dp_threshold: int
) -> str:
    """Memo key for a block's *join core*: everything that feeds access-path
    selection and :class:`JoinOrderEnumerator`.  From-items (alias, join
    type, source, ON conjuncts, predecessor constraints) and the full WHERE
    conjunct set are included; post-join clauses (select list, GROUP BY,
    ORDER BY, ROWNUM) deliberately are not — states differing only there
    share one enumeration.  Including *all* WHERE conjuncts over-keys
    slightly (subquery/expensive conjuncts only shape pending filters) in
    exchange for an obviously safe key.
    """
    from ..sql.render import render_expr

    parts: list[str] = [f"dp={dp_threshold}"]
    for item in block.from_items:
        source = (
            item.table_name if item.is_base_table else signature(item.subquery)
        )
        on = "&".join(render_expr(c) for c in item.join_conjuncts)
        preds = ",".join(sorted(item.required_predecessors() & local_aliases))
        parts.append(f"{item.alias}|{item.join_type}|{source}|{on}|{preds}")
    parts.append(
        "where:" + "&".join(
            sorted(render_expr(c) for c in block.where_conjuncts)
        )
    )
    return "\n".join(parts)


def _stopkey_cost(plan: Plan, fraction: float) -> float:
    """Cost of *plan* when only a *fraction* of its output is consumed
    (COUNT STOPKEY).  Blocking operators below the stop key must still run
    to completion; streaming operators scale with the consumed fraction."""
    from .plans import (
        Distinct as _Distinct,
        Filter as _Filter,
        GroupBy as _GroupBy,
        HashJoin as _HashJoin,
        Limit as _Limit,
        MergeJoin as _MergeJoin,
        NestedLoopJoin as _NLJoin,
        Project as _Project,
        SetOp as _SetOp,
        Sort as _Sort,
        ViewScan as _ViewScan,
        WindowCompute as _Window,
    )

    if isinstance(plan, (_Sort, _GroupBy, _Distinct, _SetOp, _Window)):
        return plan.cost
    if isinstance(plan, (_Filter, _Project, _Limit, _ViewScan)):
        child = plan.children()[0]
        own = max(plan.cost - child.cost, 0.0)
        return own * fraction + _stopkey_cost(child, fraction)
    if isinstance(plan, _NLJoin):
        own = max(plan.cost - plan.left.cost, 0.0)
        return own * fraction + _stopkey_cost(plan.left, fraction)
    if isinstance(plan, (_HashJoin, _MergeJoin)):
        own = max(plan.cost - plan.left.cost - plan.right.cost, 0.0)
        return (
            own * fraction
            + _stopkey_cost(plan.left, fraction)
            + plan.right.cost
        )
    return plan.cost * fraction


def _collect_aggregate_calls(block: QueryBlock) -> list[ast.FuncCall]:
    calls: list[ast.FuncCall] = []
    seen: set[str] = set()
    from ..sql.render import render_expr

    def collect(expr: ast.Expr) -> None:
        if isinstance(expr, ast.WindowFunc):
            return
        if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
            key = render_expr(expr)
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
    for order in block.order_by:
        collect(order.expr)
    return calls
