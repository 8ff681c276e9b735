"""Physical plan nodes (operator trees).

A plan node carries its estimated ``cardinality`` (output rows) and
``cost`` (cumulative work units including its children), both computed by
the physical optimizer when the node is constructed.  The execution
engine interprets these nodes; :meth:`Plan.describe` produces the
EXPLAIN-style rendering.

Non-inner join types follow the query tree: ``LEFT``, ``SEMI``, ``ANTI``,
``ANTI_NA`` (null-aware antijoin).  Semi/anti joins expose only left-side
columns.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..catalog.schema import Index
from ..sql import ast
from ..sql.render import render_expr


class Plan:
    """Base class for physical plan nodes."""

    def __init__(self, cost: float, cardinality: float, aliases: frozenset[str]):
        self.cost = cost
        self.cardinality = cardinality
        self.aliases = aliases

    def children(self) -> list["Plan"]:
        return []

    def applied_conjuncts(self) -> list[ast.Expr]:
        """The block conjuncts this operator applies.  Each conjunct of a
        block is applied at exactly one operator of its plan: the join
        enumerator does not re-apply what an access path applies, and the
        plan verifier checks it (``plan.conjunct-placement``).  Join keys
        are not applications; an index probe applies its covered
        conjuncts."""
        return []

    def label(self) -> str:
        return type(self).__name__

    def describe(self, indent: int = 0,
                 actual_rows: "Optional[dict[int, int]]" = None) -> str:
        actual = ""
        if actual_rows is not None:
            actual = f" actual={actual_rows.get(id(self), 0)}"
        lines = [
            "  " * indent
            + f"{self.label()}  (rows={self.cardinality:.0f} "
            + f"cost={self.cost:.0f}{actual})"
        ]
        for child in self.children():
            lines.append(child.describe(indent + 1, actual_rows))
        return "\n".join(lines)

    def walk(self) -> Iterable["Plan"]:
        """Pre-order iteration over this node and all descendants."""
        yield self
        for child in self.children():
            yield from child.walk()

    def total_operator_count(self) -> int:
        return 1 + sum(c.total_operator_count() for c in self.children())


class TableScan(Plan):
    """Full scan of a base table with pushed-down filter conjuncts."""

    def __init__(self, alias: str, table_name: str, conjuncts: list[ast.Expr],
                 cost: float, cardinality: float):
        super().__init__(cost, cardinality, frozenset([alias]))
        self.alias = alias
        self.table_name = table_name
        self.conjuncts = conjuncts

    def applied_conjuncts(self) -> list[ast.Expr]:
        return self.conjuncts

    def label(self) -> str:
        text = f"TABLE SCAN {self.table_name} {self.alias}"
        if self.conjuncts:
            text += " filter[" + " AND ".join(map(render_expr, self.conjuncts)) + "]"
        return text


class IndexScan(Plan):
    """Index access: equality binds on leading columns, an optional range
    bound on the next column, residual filters applied to fetched rows.

    Bind expressions may reference other aliases; when they do, the scan
    is only valid as the inner of a nested-loop join (or as a correlated
    access inside TIS evaluation) where those aliases are already bound.
    """

    def __init__(
        self,
        alias: str,
        table_name: str,
        index: Index,
        eq_binds: list[tuple[str, ast.Expr]],
        range_bind: Optional[tuple[str, str, ast.Expr]],
        post_conjuncts: list[ast.Expr],
        cost: float,
        cardinality: float,
        covered_conjuncts: Optional[list[ast.Expr]] = None,
    ):
        super().__init__(cost, cardinality, frozenset([alias]))
        self.alias = alias
        self.table_name = table_name
        self.index = index
        self.eq_binds = eq_binds
        self.range_bind = range_bind
        self.post_conjuncts = post_conjuncts
        #: the block conjuncts the binds apply; like the post conjuncts,
        #: they are applied here and nowhere else (:meth:`applied_conjuncts`)
        self.covered_conjuncts = covered_conjuncts or []

    def applied_conjuncts(self) -> list[ast.Expr]:
        return self.covered_conjuncts + self.post_conjuncts

    def outer_aliases(self) -> set[str]:
        """Aliases the bind expressions depend on."""
        refs: set[str] = set()
        exprs = [e for _c, e in self.eq_binds]
        if self.range_bind is not None:
            exprs.append(self.range_bind[2])
        for expr in exprs:
            for col in ast.column_refs_in(expr):
                if col.qualifier and col.qualifier != self.alias:
                    refs.add(col.qualifier)
        return refs

    def label(self) -> str:
        binds = [f"{c}={render_expr(e)}" for c, e in self.eq_binds]
        if self.range_bind is not None:
            column, op, expr = self.range_bind
            binds.append(f"{column}{op}{render_expr(expr)}")
        text = (
            f"INDEX SCAN {self.table_name} {self.alias}"
            f" via {self.index.name}[{', '.join(binds)}]"
        )
        if self.post_conjuncts:
            text += " filter[" + " AND ".join(
                map(render_expr, self.post_conjuncts)
            ) + "]"
        return text


class ViewScan(Plan):
    """Scan over a derived table's sub-plan.

    Non-lateral views are materialised once; lateral views (produced by
    join predicate pushdown) re-execute per outer row and must appear as
    the inner of a nested-loop join.
    """

    def __init__(
        self,
        alias: str,
        child: Plan,
        column_names: list[str],
        lateral_refs: set[str],
        conjuncts: list[ast.Expr],
        cost: float,
        cardinality: float,
        correlation_keys: Optional[list[tuple[str, str]]] = None,
    ):
        super().__init__(cost, cardinality, frozenset([alias]))
        self.alias = alias
        self.child = child
        self.column_names = column_names
        self.lateral_refs = lateral_refs
        self.conjuncts = conjuncts
        #: (alias, column) pairs outside the view that its result depends
        #: on; the executor's probe caches key on these
        self.correlation_keys = correlation_keys or []

    def children(self) -> list[Plan]:
        return [self.child]

    def applied_conjuncts(self) -> list[ast.Expr]:
        return self.conjuncts

    @property
    def is_lateral(self) -> bool:
        return bool(self.lateral_refs)

    def label(self) -> str:
        kind = "LATERAL VIEW" if self.is_lateral else "VIEW"
        text = f"{kind} {self.alias}"
        if self.conjuncts:
            text += " filter[" + " AND ".join(map(render_expr, self.conjuncts)) + "]"
        return text


class Join(Plan):
    """Base for the three join methods."""

    def __init__(
        self,
        left: Plan,
        right: Plan,
        join_type: str,
        cost: float,
        cardinality: float,
    ):
        aliases = (
            left.aliases | right.aliases
            if join_type in ("INNER", "LEFT")
            else left.aliases
        )
        super().__init__(cost, cardinality, aliases)
        self.left = left
        self.right = right
        self.join_type = join_type

    def children(self) -> list[Plan]:
        return [self.left, self.right]


class NestedLoopJoin(Join):
    """Nested loops; the right side is re-evaluated per left row (an
    IndexScan right side with binds on left aliases gives index NL)."""

    def __init__(self, left: Plan, right: Plan, join_type: str,
                 conjuncts: list[ast.Expr], cost: float, cardinality: float):
        super().__init__(left, right, join_type, cost, cardinality)
        self.conjuncts = conjuncts

    def applied_conjuncts(self) -> list[ast.Expr]:
        return self.conjuncts

    def label(self) -> str:
        text = f"NESTED LOOPS {self.join_type}"
        if self.conjuncts:
            text += " on[" + " AND ".join(map(render_expr, self.conjuncts)) + "]"
        return text


class HashJoin(Join):
    """Hash join on equi-key lists; the right side builds the table."""

    def __init__(
        self,
        left: Plan,
        right: Plan,
        join_type: str,
        left_keys: list[ast.Expr],
        right_keys: list[ast.Expr],
        residual_conjuncts: list[ast.Expr],
        cost: float,
        cardinality: float,
    ):
        super().__init__(left, right, join_type, cost, cardinality)
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual_conjuncts = residual_conjuncts

    def applied_conjuncts(self) -> list[ast.Expr]:
        return self.residual_conjuncts

    def label(self) -> str:
        keys = ", ".join(
            f"{render_expr(l)}={render_expr(r)}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"HASH JOIN {self.join_type} on[{keys}]"


class MergeJoin(Join):
    """Sort-merge join on equi-key lists."""

    def __init__(
        self,
        left: Plan,
        right: Plan,
        join_type: str,
        left_keys: list[ast.Expr],
        right_keys: list[ast.Expr],
        residual_conjuncts: list[ast.Expr],
        cost: float,
        cardinality: float,
    ):
        super().__init__(left, right, join_type, cost, cardinality)
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual_conjuncts = residual_conjuncts

    def applied_conjuncts(self) -> list[ast.Expr]:
        return self.residual_conjuncts

    def label(self) -> str:
        keys = ", ".join(
            f"{render_expr(l)}={render_expr(r)}"
            for l, r in zip(self.left_keys, self.right_keys)
        )
        return f"MERGE JOIN {self.join_type} on[{keys}]"


class Filter(Plan):
    """Residual filter; conjuncts may contain subquery expressions, which
    execute under tuple-iteration semantics with result caching — the TIS
    path the paper's unnesting decision weighs against (§2.2.1)."""

    def __init__(self, child: Plan, conjuncts: list[ast.Expr],
                 cost: float, cardinality: float):
        super().__init__(cost, cardinality, child.aliases)
        self.child = child
        self.conjuncts = conjuncts

    def children(self) -> list[Plan]:
        return [self.child]

    def applied_conjuncts(self) -> list[ast.Expr]:
        return self.conjuncts

    def label(self) -> str:
        return "FILTER [" + " AND ".join(map(render_expr, self.conjuncts)) + "]"


class GroupBy(Plan):
    """Hash aggregation over group keys (one pass per grouping set when
    ROLLUP / GROUPING SETS are present)."""

    def __init__(
        self,
        child: Plan,
        group_exprs: list[ast.Expr],
        aggregates: list[ast.FuncCall],
        cost: float,
        cardinality: float,
        grouping_sets: Optional[list[list[int]]] = None,
    ):
        super().__init__(cost, cardinality, child.aliases)
        self.child = child
        self.group_exprs = group_exprs
        self.aggregates = aggregates
        self.grouping_sets = grouping_sets

    def children(self) -> list[Plan]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(map(render_expr, self.group_exprs))
        if self.grouping_sets is not None:
            return f"GROUP BY GROUPING SETS [{keys}] x{len(self.grouping_sets)}"
        return f"GROUP BY [{keys}]" if keys else "AGGREGATE"


class WindowCompute(Plan):
    def __init__(self, child: Plan, windows: list[ast.WindowFunc],
                 cost: float, cardinality: float):
        super().__init__(cost, cardinality, child.aliases)
        self.child = child
        self.windows = windows

    def children(self) -> list[Plan]:
        return [self.child]

    def label(self) -> str:
        return f"WINDOW ({len(self.windows)} functions)"


class Distinct(Plan):
    def __init__(self, child: Plan, cost: float, cardinality: float):
        super().__init__(cost, cardinality, child.aliases)
        self.child = child

    def children(self) -> list[Plan]:
        return [self.child]

    def label(self) -> str:
        return "DISTINCT"


class Sort(Plan):
    def __init__(self, child: Plan, order_by: list[ast.OrderItem],
                 cost: float, cardinality: float):
        super().__init__(cost, cardinality, child.aliases)
        self.child = child
        self.order_by = order_by

    def children(self) -> list[Plan]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(
            render_expr(o.expr) + (" DESC" if o.descending else "")
            for o in self.order_by
        )
        return f"SORT [{keys}]"


class Limit(Plan):
    """ROWNUM row limit."""

    def __init__(self, child: Plan, count: int, cost: float, cardinality: float):
        super().__init__(cost, cardinality, child.aliases)
        self.child = child
        self.count = count

    def children(self) -> list[Plan]:
        return [self.child]

    def label(self) -> str:
        return f"COUNT STOPKEY (rownum <= {self.count})"


class Project(Plan):
    """Final projection to the block's select list."""

    def __init__(self, child: Plan, select_items: list[ast.SelectItem],
                 cost: float, cardinality: float):
        super().__init__(cost, cardinality, child.aliases)
        self.child = child
        self.select_items = select_items

    def children(self) -> list[Plan]:
        return [self.child]

    def label(self) -> str:
        return "PROJECT [" + ", ".join(
            i.alias or render_expr(i.expr) for i in self.select_items
        ) + "]"


class SetOp(Plan):
    def __init__(self, op: str, branches: Iterable[Plan],
                 cost: float, cardinality: float):
        branches = list(branches)
        super().__init__(cost, cardinality, frozenset())
        self.op = op
        self.branches = branches

    def children(self) -> list[Plan]:
        return list(self.branches)

    def label(self) -> str:
        return self.op
