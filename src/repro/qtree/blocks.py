"""The query tree: declarative query blocks.

The paper distinguishes *query trees* from algebraic *operator trees*:
query trees "retain all the declarativeness of SQL" (§2) and are what the
transformation framework manipulates; only physical optimization converts
them to operator (plan) trees.  This module defines that representation.

A :class:`QueryBlock` is a flattened SELECT: a list of from-items, a
conjunct list for WHERE, group-by/having, etc.  Join structure is kept
Oracle-style: inner-join predicates are ordinary WHERE conjuncts; outer,
semi and anti joins annotate the *right-side* from-item with a join type
and its ON conjuncts, which imposes the partial join order the paper
describes for non-commutative joins (§2.1.1, §2.2.3).

Set operations are :class:`SetOpBlock` nodes whose branches are query
blocks (or nested set ops).  Both node kinds can appear as a derived-table
source or subquery body, and both support :meth:`clone` — the deep-copy
capability §3.1 lists as a framework component.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Union

from ..catalog.schema import TableDef
from ..errors import TransformError
from ..sql import ast

#: Join types a from-item can carry.  INNER items are freely reorderable;
#: the others are non-commutative and impose a partial order (their left
#: sides must precede them).  ANTI_NA is the null-aware antijoin (§2.1.1).
JOIN_TYPES = ("INNER", "LEFT", "SEMI", "ANTI", "ANTI_NA")


class FromItem:
    """One entry of a query block's FROM list.

    ``source`` is either a base-table name (with ``table`` holding the
    resolved :class:`TableDef`) or a :class:`QueryBlock` /
    :class:`SetOpBlock` for a derived table (inline view).

    For non-INNER items, ``join_conjuncts`` holds the ON condition and the
    item is the *right* side of the join; every alias referenced by those
    conjuncts other than this item's own alias must precede it in any join
    order.  ``lateral_refs`` lists outer aliases this (derived) item
    references after join predicate pushdown made it laterally correlated.
    """

    _counter = itertools.count(1)

    def __init__(
        self,
        alias: str,
        source: Union[str, "QueryNode"],
        table: Optional[TableDef] = None,
        join_type: str = "INNER",
        join_conjuncts: Optional[list[ast.Expr]] = None,
    ):
        if join_type not in JOIN_TYPES:
            raise TransformError(f"unknown join type {join_type!r}")
        self.alias = alias.lower()
        self.source = source
        self.table = table
        self.join_type = join_type
        self.join_conjuncts: list[ast.Expr] = list(join_conjuncts or [])

    # -- classification ------------------------------------------------------

    @property
    def is_base_table(self) -> bool:
        return isinstance(self.source, str)

    @property
    def is_derived(self) -> bool:
        return not isinstance(self.source, str)

    @property
    def table_name(self) -> str:
        if not isinstance(self.source, str):
            raise TransformError(f"from-item {self.alias!r} is not a base table")
        return self.source

    @property
    def subquery(self) -> "QueryNode":
        if isinstance(self.source, str):
            raise TransformError(f"from-item {self.alias!r} is not a derived table")
        return self.source

    @property
    def is_inner(self) -> bool:
        return self.join_type == "INNER"

    def output_columns(self) -> list[str]:
        """Column names this item exposes to the enclosing block."""
        if self.is_base_table:
            assert self.table is not None
            return self.table.column_names
        return self.subquery.output_columns()

    def required_predecessors(self) -> set[str]:
        """Aliases that must precede this item in any join order."""
        if self.join_type == "INNER":
            return set()
        refs = set()
        for conjunct in self.join_conjuncts:
            for col in ast.column_refs_in(conjunct):
                if col.qualifier and col.qualifier != self.alias:
                    refs.add(col.qualifier)
        return refs

    def clone(self) -> "FromItem":
        source = self.source if isinstance(self.source, str) else self.source.clone()
        return FromItem(
            self.alias,
            source,
            self.table,
            self.join_type,
            [c.clone() for c in self.join_conjuncts],
        )

    @classmethod
    def fresh_alias(cls, prefix: str) -> str:
        """Generate a globally unique alias like ``vw$3``."""
        return f"{prefix}${next(cls._counter)}"

    def __repr__(self) -> str:
        kind = self.source if isinstance(self.source, str) else "<derived>"
        return f"FromItem({self.alias}={kind}, {self.join_type})"


class QueryNode:
    """Common behaviour of QueryBlock and SetOpBlock."""

    def output_columns(self) -> list[str]:
        raise NotImplementedError

    def clone(self) -> "QueryNode":
        raise NotImplementedError

    def to_sql(self) -> str:
        from .sqlgen import node_to_sql

        return node_to_sql(self)

    def iter_blocks(self) -> Iterator["QueryBlock"]:
        """Yield every QueryBlock in this subtree, pre-order: the block
        itself, derived tables, subqueries in predicates, set-op branches."""
        raise NotImplementedError

    def correlation_refs(self) -> list[ast.ColumnRef]:
        """Column references in this subtree to aliases bound outside it."""
        raise NotImplementedError

    def _collect_refs(self, bound: set[str], refs: list[ast.ColumnRef]) -> None:
        raise NotImplementedError


class QueryBlock(QueryNode):
    """A single declarative SELECT block."""

    _names = itertools.count(1)

    def __init__(
        self,
        name: Optional[str] = None,
        select_items: Optional[list[ast.SelectItem]] = None,
        distinct: bool = False,
        from_items: Optional[list[FromItem]] = None,
        where_conjuncts: Optional[list[ast.Expr]] = None,
        group_by: Optional[list[ast.Expr]] = None,
        grouping_sets: Optional[list[list[int]]] = None,
        having_conjuncts: Optional[list[ast.Expr]] = None,
        order_by: Optional[list[ast.OrderItem]] = None,
        rownum_limit: Optional[int] = None,
    ):
        self.name = name or f"qb${next(self._names)}"
        self.select_items = select_items or []
        self.distinct = distinct
        self.from_items = from_items or []
        self.where_conjuncts = where_conjuncts or []
        self.group_by = group_by or []
        #: ROLLUP / CUBE / GROUPING SETS, expanded: each entry lists the
        #: indices into ``group_by`` that are grouped in that set
        self.grouping_sets = grouping_sets
        self.having_conjuncts = having_conjuncts or []
        self.order_by = order_by or []
        self.rownum_limit = rownum_limit

    # -- structure accessors ---------------------------------------------

    @property
    def has_aggregation(self) -> bool:
        """True if this block groups (explicitly or via aggregate-only
        select list) or deduplicates."""
        return bool(self.group_by) or self.distinct or self.has_aggregates

    @property
    def has_aggregates(self) -> bool:
        return any(
            ast.contains_aggregate(item.expr) for item in self.select_items
        ) or any(ast.contains_aggregate(c) for c in self.having_conjuncts)

    @property
    def is_spj(self) -> bool:
        """True for a plain select-project-join block: no grouping,
        distinct, aggregation, window functions, rownum, or set ops."""
        if self.group_by or self.having_conjuncts or self.distinct:
            return False
        if self.has_aggregates or self.rownum_limit is not None:
            return False
        if any(
            isinstance(node, ast.WindowFunc)
            for item in self.select_items
            for node in item.expr.walk()
        ):
            return False
        return True

    def aliases(self) -> set[str]:
        return {item.alias for item in self.from_items}

    def from_item(self, alias: str) -> FromItem:
        alias = alias.lower()
        for item in self.from_items:
            if item.alias == alias:
                return item
        raise TransformError(f"no from-item {alias!r} in block {self.name}")

    def output_columns(self) -> list[str]:
        columns: list[str] = []
        for item in self.select_items:
            if isinstance(item.expr, ast.Star):
                for from_item in self.from_items:
                    if item.expr.qualifier in (None, from_item.alias):
                        columns.extend(from_item.output_columns())
            else:
                columns.append(item.alias or _default_column_name(item.expr))
        return columns

    def select_expr_for(self, column: str) -> ast.Expr:
        """The select expression that produces output column *column*."""
        column = column.lower()
        for item in self.select_items:
            name = item.alias or _default_column_name(item.expr)
            if name == column:
                return item.expr
        raise TransformError(
            f"block {self.name} has no output column {column!r}"
        )

    # -- predicates and subqueries -----------------------------------------

    def all_conjuncts(self) -> list[ast.Expr]:
        result = list(self.where_conjuncts)
        result.extend(self.having_conjuncts)
        for item in self.from_items:
            result.extend(item.join_conjuncts)
        return result

    def subquery_exprs(self) -> list[ast.SubqueryExpr]:
        """SubqueryExpr nodes in WHERE/HAVING/join conjuncts and the select
        list (scalar subqueries), in deterministic order."""
        found: list[ast.SubqueryExpr] = []
        for conjunct in self.all_conjuncts():
            for node in conjunct.walk():
                if isinstance(node, ast.SubqueryExpr):
                    found.append(node)
        for item in self.select_items:
            for node in item.expr.walk():
                if isinstance(node, ast.SubqueryExpr):
                    found.append(node)
        return found

    def derived_from_items(self) -> list[FromItem]:
        return [item for item in self.from_items if item.is_derived]

    def iter_blocks(self) -> Iterator["QueryBlock"]:
        yield self
        for item in self.from_items:
            if item.is_derived:
                yield from item.subquery.iter_blocks()
        for sub in self.subquery_exprs():
            if isinstance(sub.query, QueryNode):
                yield from sub.query.iter_blocks()

    def bound_aliases_recursive(self) -> set[str]:
        """Aliases defined by this block and every nested block."""
        bound = set()
        for block in self.iter_blocks():
            if isinstance(block, QueryBlock):
                bound |= block.aliases()
        return bound

    def correlation_refs(self) -> list[ast.ColumnRef]:
        """Column references inside this subtree that are *not* bound by
        this block or any nested block — i.e. correlations to outer query
        blocks."""
        bound: set[str] = set()
        refs: list[ast.ColumnRef] = []
        self._collect_refs(bound, refs)
        return [ref for ref in refs if ref.qualifier not in bound]

    def _collect_refs(self, bound: set[str], refs: list[ast.ColumnRef]) -> None:
        """One traversal of this subtree: add the aliases it binds to
        *bound* and every qualified column reference to *refs*, block by
        block in :meth:`iter_blocks` order."""
        bound.update(item.alias for item in self.from_items)
        nested: list[ast.SubqueryExpr] = []
        select_nested: list[ast.SubqueryExpr] = []
        for select in self.select_items:
            _scan_expr(select.expr, refs, select_nested)
        for conjunct in self.all_conjuncts():
            _scan_expr(conjunct, refs, nested)
        # subqueries in GROUP BY / ORDER BY are not part of the tree
        unreachable: list[ast.SubqueryExpr] = []
        for expr in self.group_by:
            _scan_expr(expr, refs, unreachable)
        for order in self.order_by:
            _scan_expr(order.expr, refs, unreachable)
        for item in self.from_items:
            if item.is_derived:
                item.subquery._collect_refs(bound, refs)
        for sub in nested + select_nested:
            if isinstance(sub.query, QueryNode):
                sub.query._collect_refs(bound, refs)

    @property
    def is_correlated(self) -> bool:
        return bool(self.correlation_refs())

    # -- copying -------------------------------------------------------------

    def clone(self) -> "QueryBlock":
        return QueryBlock(
            name=self.name,
            select_items=[item.clone() for item in self.select_items],
            distinct=self.distinct,
            from_items=[item.clone() for item in self.from_items],
            where_conjuncts=[c.clone() for c in self.where_conjuncts],
            group_by=[g.clone() for g in self.group_by],
            grouping_sets=(
                [list(s) for s in self.grouping_sets]
                if self.grouping_sets is not None
                else None
            ),
            having_conjuncts=[h.clone() for h in self.having_conjuncts],
            order_by=[o.clone() for o in self.order_by],
            rownum_limit=self.rownum_limit,
        )

    def __repr__(self) -> str:
        return f"QueryBlock({self.name}, from={[i.alias for i in self.from_items]})"


class SetOpBlock(QueryNode):
    """UNION / UNION ALL / INTERSECT / MINUS over two or more branches.

    UNION ALL nodes are flattened to n-ary (join factorization iterates
    over all branches); the other operators stay binary.
    """

    def __init__(self, op: str, branches: list[QueryNode],
                 order_by: Optional[list[ast.OrderItem]] = None,
                 name: Optional[str] = None):
        if op not in ("UNION", "UNION ALL", "INTERSECT", "MINUS"):
            raise TransformError(f"unknown set operator {op!r}")
        self.op = op
        self.branches = branches
        self.order_by = order_by or []
        self.name = name or f"setop${next(QueryBlock._names)}"

    def output_columns(self) -> list[str]:
        return self.branches[0].output_columns()

    def iter_blocks(self) -> Iterator[QueryBlock]:
        for branch in self.branches:
            yield from branch.iter_blocks()

    def _collect_refs(self, bound: set[str], refs: list[ast.ColumnRef]) -> None:
        for branch in self.branches:
            branch._collect_refs(bound, refs)

    def correlation_refs(self) -> list[ast.ColumnRef]:
        refs: list[ast.ColumnRef] = []
        for branch in self.branches:
            refs.extend(branch.correlation_refs())
        return refs

    @property
    def is_correlated(self) -> bool:
        return bool(self.correlation_refs())

    def clone(self) -> "SetOpBlock":
        return SetOpBlock(
            self.op,
            [b.clone() for b in self.branches],
            [o.clone() for o in self.order_by],
            name=self.name,
        )

    def __repr__(self) -> str:
        return f"SetOpBlock({self.op}, {len(self.branches)} branches)"


def _scan_expr(
    expr: ast.Expr, refs: list[ast.ColumnRef], subqueries: list[ast.SubqueryExpr]
) -> None:
    """Append *expr*'s qualified column references and its subquery
    expressions (bodies not entered) to the two lists."""
    for node in expr.walk():
        if isinstance(node, ast.ColumnRef):
            if node.qualifier:
                refs.append(node)
        elif isinstance(node, ast.SubqueryExpr):
            subqueries.append(node)


def _default_column_name(expr: ast.Expr) -> str:
    """Output column name for an un-aliased select expression."""
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    return "?column?"
