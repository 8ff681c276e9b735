"""Physical-plan invariant verifier.

Checks the contracts between the physical optimizer and the execution
engine that, when broken, produce silently wrong results rather than
crashes:

``plan.alias-consistency``
    every operator's advertised alias set matches its children (joins
    follow the semi/anti projection rule: only INNER and LEFT expose
    right-side columns);
``plan.join-method``
    the join method can implement the join type — ``ANTI_NA`` hashes
    only on a single bare key with no residual and never merges (the
    executor's three-valued-logic limits), and hash/merge right sides
    are not parameterised on left-side aliases (only nested loops can
    rebind per row);
``plan.join-keys``
    equi-key lists agree in length, are non-empty, and each key's side
    references only that side's aliases (or outer correlations);
``plan.cross-branch``
    expressions evaluated at a node reference only aliases produced in
    that node's subtree or genuine outer correlations — never a sibling
    branch of the plan;
``plan.conjunct-placement``
    within one region of the plan, every conjunct object is applied at
    exactly one operator (:meth:`~repro.optimizer.plans.Plan.applied_conjuncts`:
    an index probe applies its covered conjuncts, so re-applying one at
    the join, or as a post filter, double-filters).  A region is the plan
    of one query block: a new one starts at each set-operation branch
    and each view body, since blocks may share immutable conjuncts;
``plan.arity``
    operator output widths agree where computable (set-op branches,
    view bodies vs. declared column names);
``plan.shape``
    structural sanity — known join/set operators, aggregate lists hold
    aggregates, grouping-set indices in range, non-negative stopkeys,
    non-empty projections;
``plan.cost-sanity``
    costs and cardinalities are finite and non-negative (warnings for
    non-monotone cumulative costs, which stopkey scaling and
    parameterised inners legitimately produce).
"""

from __future__ import annotations

import math
from typing import Optional

from ..optimizer.plans import (
    Distinct,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    Join,
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
from ..qtree.blocks import JOIN_TYPES
from ..qtree.exprutil import aliases_referenced
from ..sql import ast
from ..sql.render import render_expr
from .diagnostics import Diagnostic

_SETOPS = ("UNION", "UNION ALL", "INTERSECT", "MINUS")


class PlanVerifier:
    """Checks physical-plan invariants bottom-up."""

    #: total verify() invocations (read by the zero-overhead benchmark)
    calls = 0

    def verify(self, root: Plan) -> list[Diagnostic]:
        type(self).calls += 1
        diagnostics: list[Diagnostic] = []
        universe = _produced(root)
        placements: dict[tuple[int, int], list[str]] = {}
        self._visit(
            root, universe, frozenset(), placements, diagnostics, set(),
            id(root),
        )
        for node_labels in placements.values():
            if len(node_labels) > 1:
                diagnostics.append(Diagnostic(
                    "plan.conjunct-placement", "error",
                    "conjunct applied at multiple operators: "
                    + " / ".join(node_labels),
                    node=node_labels[0],
                ))
        return diagnostics

    # -- traversal ---------------------------------------------------------

    def _visit(
        self,
        plan: Plan,
        universe: frozenset[str],
        allowed_outer: frozenset[str],
        placements: dict[tuple[int, int], list[str]],
        diagnostics: list[Diagnostic],
        visited: set[int],
        region: int,
    ) -> None:
        # The annotation store legitimately shares identical sub-plans
        # within one tree; audit each object once or conjunct-placement
        # would see phantom duplicates.
        if id(plan) in visited:
            return
        visited.add(id(plan))
        self._check_costs(plan, diagnostics)
        self._check_aliases(plan, diagnostics)
        self._check_shape(plan, diagnostics)
        self._check_cross_branch(plan, universe, allowed_outer, diagnostics)
        for conjunct in plan.applied_conjuncts():
            placements.setdefault((region, id(conjunct)), []).append(
                plan.label()
            )
        if isinstance(plan, Join):
            self._check_join(plan, diagnostics)
        if isinstance(plan, ViewScan):
            # a correlated view body legitimately references the aliases
            # the ViewScan declares it depends on
            allowed_outer = (
                allowed_outer
                | plan.lateral_refs
                | {alias for alias, _column in plan.correlation_keys}
            )
        starts_regions = isinstance(plan, (SetOp, ViewScan))
        for child in plan.children():
            self._visit(
                child, universe, allowed_outer, placements, diagnostics,
                visited, id(child) if starts_regions else region,
            )

    # -- per-node checks ----------------------------------------------------

    def _check_costs(self, plan: Plan, diagnostics: list[Diagnostic]) -> None:
        for field_name, value in (("cost", plan.cost),
                                  ("cardinality", plan.cardinality)):
            if not math.isfinite(value) or value < 0:
                diagnostics.append(Diagnostic(
                    "plan.cost-sanity", "error",
                    f"{field_name} is {value!r}", node=plan.label(),
                ))
        if isinstance(plan, Limit):
            return  # stopkey legitimately scales the child's cost down
        for index, child in enumerate(plan.children()):
            if isinstance(plan, Join) and index == 1:
                continue  # parameterised inners cost less than standalone
            if child.cost > plan.cost * 1.000001 + 1e-6:
                diagnostics.append(Diagnostic(
                    "plan.cost-sanity", "warning",
                    f"cumulative cost {plan.cost:.2f} below child "
                    f"{child.label()!r} cost {child.cost:.2f}",
                    node=plan.label(),
                ))

    def _check_aliases(self, plan: Plan, diagnostics: list[Diagnostic]) -> None:
        expected: Optional[frozenset[str]] = None
        if isinstance(plan, (TableScan, IndexScan, ViewScan)):
            expected = frozenset([plan.alias])
        elif isinstance(plan, Join):
            expected = (
                plan.left.aliases | plan.right.aliases
                if plan.join_type in ("INNER", "LEFT")
                else plan.left.aliases
            )
        elif isinstance(plan, SetOp):
            expected = frozenset()
        elif plan.children():
            expected = plan.children()[0].aliases
        if expected is not None and plan.aliases != expected:
            diagnostics.append(Diagnostic(
                "plan.alias-consistency", "error",
                f"advertises aliases {sorted(plan.aliases)}, children imply "
                f"{sorted(expected)}", node=plan.label(),
            ))

    def _check_shape(self, plan: Plan, diagnostics: list[Diagnostic]) -> None:
        if isinstance(plan, Join) and plan.join_type not in JOIN_TYPES:
            diagnostics.append(Diagnostic(
                "plan.shape", "error",
                f"unknown join type {plan.join_type!r}", node=plan.label(),
            ))
        if isinstance(plan, SetOp):
            if plan.op not in _SETOPS:
                diagnostics.append(Diagnostic(
                    "plan.shape", "error",
                    f"unknown set operator {plan.op!r}", node=plan.label(),
                ))
            if len(plan.branches) < 2:
                diagnostics.append(Diagnostic(
                    "plan.shape", "error",
                    f"set operation with {len(plan.branches)} branch(es)",
                    node=plan.label(),
                ))
            widths = [w for b in plan.branches
                      if (w := _width(b)) is not None]
            if widths and any(w != widths[0] for w in widths):
                diagnostics.append(Diagnostic(
                    "plan.arity", "error",
                    f"set-op branches disagree on width: {widths}",
                    node=plan.label(),
                ))
        if isinstance(plan, GroupBy):
            for aggregate in plan.aggregates:
                if not (isinstance(aggregate, ast.FuncCall)
                        and aggregate.is_aggregate):
                    diagnostics.append(Diagnostic(
                        "plan.shape", "error",
                        f"non-aggregate {render_expr(aggregate)!r} in "
                        "aggregate list", node=plan.label(),
                    ))
            if plan.grouping_sets is not None:
                for grouping_set in plan.grouping_sets:
                    for index in grouping_set:
                        if not 0 <= index < len(plan.group_exprs):
                            diagnostics.append(Diagnostic(
                                "plan.shape", "error",
                                f"grouping-set index {index} outside group "
                                f"key list (len {len(plan.group_exprs)})",
                                node=plan.label(),
                            ))
        if isinstance(plan, Limit) and plan.count < 0:
            diagnostics.append(Diagnostic(
                "plan.shape", "error",
                f"negative stopkey {plan.count}", node=plan.label(),
            ))
        if isinstance(plan, Project) and not plan.select_items:
            diagnostics.append(Diagnostic(
                "plan.shape", "error", "empty projection", node=plan.label(),
            ))
        if isinstance(plan, ViewScan):
            if not plan.column_names:
                diagnostics.append(Diagnostic(
                    "plan.shape", "error",
                    "view scan declares no output columns",
                    node=plan.label(),
                ))
            width = _width(plan.child)
            if width is not None and width != len(plan.column_names):
                diagnostics.append(Diagnostic(
                    "plan.arity", "error",
                    f"view declares {len(plan.column_names)} columns, body "
                    f"produces {width}", node=plan.label(),
                ))
        if isinstance(plan, IndexScan):
            self._check_index_scan(plan, diagnostics)

    def _check_index_scan(
        self, plan: IndexScan, diagnostics: list[Diagnostic]
    ) -> None:
        index_columns = list(plan.index.columns)
        bound = [column for column, _expr in plan.eq_binds]
        if bound != index_columns[: len(bound)]:
            diagnostics.append(Diagnostic(
                "plan.shape", "error",
                f"equality binds {bound} are not a prefix of index columns "
                f"{index_columns}", node=plan.label(),
            ))
        if plan.range_bind is not None:
            column = plan.range_bind[0]
            if len(bound) >= len(index_columns) or (
                index_columns[len(bound)] != column
            ):
                diagnostics.append(Diagnostic(
                    "plan.shape", "error",
                    f"range bind on {column!r} does not follow the "
                    f"equality prefix {bound} of {index_columns}",
                    node=plan.label(),
                ))

    def _check_join(self, plan: Join, diagnostics: list[Diagnostic]) -> None:
        if isinstance(plan, (HashJoin, MergeJoin)):
            method = "hash" if isinstance(plan, HashJoin) else "merge"
            if len(plan.left_keys) != len(plan.right_keys):
                diagnostics.append(Diagnostic(
                    "plan.join-keys", "error",
                    f"{len(plan.left_keys)} left keys vs "
                    f"{len(plan.right_keys)} right keys", node=plan.label(),
                ))
            if not plan.left_keys:
                diagnostics.append(Diagnostic(
                    "plan.join-keys", "error",
                    f"{method} join with no equi-keys", node=plan.label(),
                ))
            left_produced = _produced(plan.left)
            right_produced = _produced(plan.right)
            for side, keys, own, other in (
                ("left", plan.left_keys, left_produced, right_produced),
                ("right", plan.right_keys, right_produced, left_produced),
            ):
                for key in keys:
                    leaked = _qualifiers(key) & other
                    if leaked:
                        diagnostics.append(Diagnostic(
                            "plan.join-keys", "error",
                            f"{side} key {render_expr(key)!r} references "
                            f"the other side's aliases {sorted(leaked)}",
                            node=plan.label(),
                        ))
            if plan.join_type == "ANTI_NA":
                if isinstance(plan, MergeJoin):
                    diagnostics.append(Diagnostic(
                        "plan.join-method", "error",
                        "merge join cannot implement null-aware antijoin",
                        node=plan.label(),
                    ))
                elif len(plan.left_keys) != 1 or plan.residual_conjuncts:
                    diagnostics.append(Diagnostic(
                        "plan.join-method", "error",
                        "hash null-aware antijoin requires exactly one bare "
                        "key and no residual", node=plan.label(),
                    ))
            parameterised = _unbound(plan.right) & left_produced
            if parameterised:
                diagnostics.append(Diagnostic(
                    "plan.join-method", "error",
                    f"{method} join right side is parameterised on left "
                    f"aliases {sorted(parameterised)} (only nested loops "
                    "rebind per row)", node=plan.label(),
                ))

    def _check_cross_branch(
        self,
        plan: Plan,
        universe: frozenset[str],
        allowed_outer: frozenset[str],
        diagnostics: list[Diagnostic],
    ) -> None:
        if isinstance(plan, IndexScan):
            # bind expressions are the parameterisation mechanism — they
            # reference the nested-loop outer side by design (checked at
            # hash/merge joins, where rebinding is impossible)
            exprs = list(plan.post_conjuncts)
        else:
            exprs = _local_exprs(plan)
        available = _produced(plan)
        for expr in exprs:
            # refs outside the plan's whole universe are correlations into
            # an enclosing plan; refs inside the universe but outside this
            # subtree leak from a sibling branch
            leaked = (
                (_qualifiers(expr) & universe) - available - allowed_outer
            )
            if leaked:
                diagnostics.append(Diagnostic(
                    "plan.cross-branch", "error",
                    f"expression {render_expr(expr)!r} references sibling-"
                    f"branch aliases {sorted(leaked)}", node=plan.label(),
                ))


# -- helpers ----------------------------------------------------------------


def _produced(plan: Plan, cache: Optional[dict[int, frozenset[str]]] = None
              ) -> frozenset[str]:
    """All aliases bound anywhere in the subtree (unlike ``plan.aliases``,
    semi/anti joins do not hide their right side here)."""
    if cache is None:
        cache = {}
    if id(plan) in cache:
        return cache[id(plan)]
    if isinstance(plan, (TableScan, IndexScan, ViewScan)):
        result = frozenset([plan.alias])
    else:
        result = frozenset().union(
            *(_produced(c, cache) for c in plan.children())
        ) if plan.children() else frozenset()
    cache[id(plan)] = result
    return result


def _unbound(plan: Plan) -> frozenset[str]:
    """Aliases the subtree needs bound from outside it (index-NL binds,
    lateral views, correlated pushed-down filters)."""
    needed: set[str] = set()
    for expr in _local_exprs(plan):
        needed |= _qualifiers(expr)
    if isinstance(plan, ViewScan):
        needed |= set(plan.lateral_refs)
        needed |= {alias for alias, _column in plan.correlation_keys}
    for child in plan.children():
        child_unbound = _unbound(child)
        if isinstance(plan, Join) and child is plan.right:
            child_unbound -= _produced(plan.left)
        needed |= child_unbound
    return frozenset(needed) - _produced(plan)


def _local_exprs(plan: Plan) -> list[ast.Expr]:
    """Expressions evaluated *at* this operator (children excluded)."""
    if isinstance(plan, TableScan):
        return list(plan.conjuncts)
    if isinstance(plan, IndexScan):
        exprs = [e for _c, e in plan.eq_binds]
        if plan.range_bind is not None:
            exprs.append(plan.range_bind[2])
        return exprs + list(plan.post_conjuncts)
    if isinstance(plan, ViewScan):
        return list(plan.conjuncts)
    if isinstance(plan, NestedLoopJoin):
        return list(plan.conjuncts)
    if isinstance(plan, (HashJoin, MergeJoin)):
        return (list(plan.left_keys) + list(plan.right_keys)
                + list(plan.residual_conjuncts))
    if isinstance(plan, Filter):
        return list(plan.conjuncts)
    if isinstance(plan, GroupBy):
        return list(plan.group_exprs) + list(plan.aggregates)
    if isinstance(plan, WindowCompute):
        return list(plan.windows)
    if isinstance(plan, Sort):
        return [o.expr for o in plan.order_by]
    if isinstance(plan, Project):
        return [i.expr for i in plan.select_items]
    return []


def _qualifiers(expr: ast.Expr) -> set[str]:
    """Alias qualifiers referenced by *expr*, subqueries included."""
    return set(aliases_referenced(expr))


def _width(plan: Plan) -> Optional[int]:
    """Output column count, where statically computable."""
    if isinstance(plan, Project):
        return len(plan.select_items)
    if isinstance(plan, ViewScan):
        return len(plan.column_names)
    if isinstance(plan, SetOp):
        for branch in plan.branches:
            width = _width(branch)
            if width is not None:
                return width
        return None
    if isinstance(plan, (Filter, Distinct, Sort, Limit)):
        return _width(plan.children()[0])
    return None
