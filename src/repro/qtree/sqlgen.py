"""Render query-tree nodes back to SQL text.

The output is the "transformed query" display the paper uses (Q10, Q11,
Q13, ...).  Blocks containing only inner joins produce standard SQL that
re-parses; semijoin and antijoin from-items — which have no standard SQL
spelling — are rendered with the paper's non-standard notation
(``T1.c S= T2.c`` for semijoin, ``A=`` for antijoin, ``NA=`` for the
null-aware variant, ``(+)`` suffix for outer-join conjuncts), clearly
display-only.

The rendered text doubles as the block's *structural signature* for cost
annotation reuse (§3.4.2): two sub-trees that render identically are
semantically identical and may share cost annotations.

A node's text contains the text of every node nested in it, and the
physical optimizer asks for the signature of each of them in turn.
Inside :func:`rendered_once` every node is therefore rendered a single
time per thread — a parent's rendering leaves its children's text behind
for their own signatures.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from ..errors import UnsupportedError
from ..sql import ast
from ..sql.render import render_expr
from .blocks import FromItem, QueryBlock, QueryNode, SetOpBlock


#: ``.texts`` is ``id(node) -> (node, sql)`` while the current thread is
#: inside :func:`rendered_once`
_scope = threading.local()


@contextmanager
def rendered_once() -> Iterator[None]:
    """While the scope is open, :func:`node_to_sql` renders each node
    (by identity) once and returns the remembered text afterwards.  Only
    for code that does not mutate the trees it renders: the physical
    optimizer planning one tree."""
    outer = getattr(_scope, "texts", None)
    _scope.texts = {} if outer is None else outer
    try:
        yield
    finally:
        _scope.texts = outer


def node_to_sql(node: QueryNode) -> str:
    texts = getattr(_scope, "texts", None)
    if texts is None:
        return _render_node(node)
    entry = texts.get(id(node))
    if entry is None:
        # holding the node keeps its id from being reused within the scope
        entry = texts[id(node)] = (node, _render_node(node))
    return entry[1]


def _render_node(node: QueryNode) -> str:
    if isinstance(node, QueryBlock):
        return _block_to_sql(node)
    if isinstance(node, SetOpBlock):
        parts = [node_to_sql(b) for b in node.branches]
        sep = f" {node.op} "
        text = sep.join(
            f"({p})" if isinstance(b, SetOpBlock) else p
            for p, b in zip(parts, node.branches)
        )
        if node.order_by:
            text += " ORDER BY " + _order_to_sql(node.order_by)
        return text
    raise UnsupportedError(f"cannot render node {type(node).__name__}")


def signature(node: QueryNode) -> str:
    """Stable structural signature for cost-annotation reuse."""
    return node_to_sql(node)


def _block_to_sql(block: QueryBlock) -> str:
    parts = ["SELECT"]
    if block.distinct:
        parts.append("DISTINCT")
    select = ", ".join(
        render_expr(item.expr)
        + (f" AS {item.alias}" if item.alias and _needs_alias(item) else "")
        for item in block.select_items
    )
    parts.append(select)
    parts.append("FROM")
    parts.append(", ".join(_from_item_to_sql(item) for item in block.from_items))

    conjuncts = [render_expr(c) for c in block.where_conjuncts]
    for item in block.from_items:
        conjuncts.extend(_join_conjuncts_to_sql(item))
    if block.rownum_limit is not None:
        conjuncts.append(f"ROWNUM <= {block.rownum_limit}")
    if conjuncts:
        parts.append("WHERE " + " AND ".join(conjuncts))
    if block.grouping_sets is not None:
        sets = ", ".join(
            "(" + ", ".join(render_expr(block.group_by[i]) for i in s) + ")"
            for s in block.grouping_sets
        )
        parts.append(f"GROUP BY GROUPING SETS ({sets})")
    elif block.group_by:
        parts.append("GROUP BY " + ", ".join(render_expr(g) for g in block.group_by))
    if block.having_conjuncts:
        parts.append(
            "HAVING " + " AND ".join(render_expr(h) for h in block.having_conjuncts)
        )
    if block.order_by:
        parts.append("ORDER BY " + _order_to_sql(block.order_by))
    return " ".join(parts)


def _needs_alias(item: ast.SelectItem) -> bool:
    return not (
        isinstance(item.expr, ast.ColumnRef) and item.expr.name == item.alias
    )


def _from_item_to_sql(item: FromItem) -> str:
    if item.is_base_table:
        if item.alias != item.table_name:
            return f"{item.table_name} {item.alias}"
        return item.table_name
    return f"({node_to_sql(item.subquery)}) {item.alias}"


_JOIN_MARKERS = {"SEMI": "S=", "ANTI": "A=", "ANTI_NA": "NA="}


def _join_conjuncts_to_sql(item: FromItem) -> list[str]:
    """Render a non-inner from-item's ON conjuncts in the WHERE clause
    using the paper's notation."""
    if item.join_type == "INNER":
        return []
    rendered: list[str] = []
    for conjunct in item.join_conjuncts:
        text = render_expr(conjunct)
        if item.join_type == "LEFT":
            rendered.append(f"{text} (+{item.alias})")
        else:
            marker = _JOIN_MARKERS[item.join_type]
            if (
                isinstance(conjunct, ast.BinOp)
                and conjunct.op == "="
                and isinstance(conjunct.right, ast.ColumnRef)
                and conjunct.right.qualifier == item.alias
            ):
                rendered.append(
                    f"{render_expr(conjunct.left)} {marker} "
                    f"{render_expr(conjunct.right)}"
                )
            else:
                rendered.append(f"{marker}[{text}]")
    return rendered or [f"{_JOIN_MARKERS.get(item.join_type, '(+)')}[{item.alias}: TRUE]"]


def _order_to_sql(order_by: list[ast.OrderItem]) -> str:
    return ", ".join(
        render_expr(o.expr) + (" DESC" if o.descending else "") for o in order_by
    )
