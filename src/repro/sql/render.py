"""Rendering of AST nodes back to SQL text.

Used for ``EXPLAIN`` output, the "transformed query" display the paper
shows (Q10, Q11, ...), and parse/render round-trip tests.  Rendering is
deterministic; expressions are parenthesised conservatively so the output
always re-parses to an equivalent tree.
"""

from __future__ import annotations

from ..errors import UnsupportedError
from . import ast


def render_literal(value: object) -> str:
    """Render a Python literal value as a SQL literal."""
    if value is None:
        return "NULL"
    if value is True:
        return "TRUE"
    if value is False:
        return "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return f"{value:.1f}"
    return str(value)


def render_expr(expr: ast.Expr) -> str:
    """Render an expression tree to SQL.  A subquery-free node keeps its
    text and returns it on later calls (expressions are immutable)."""
    try:
        text = expr._sql
    except AttributeError:
        text = None
    if text is None:
        text = _render(expr, render_expr)
        # a subquery body's text changes as transformations rewrite it
        expr._sql = None if expr.facts.subqueries else text
    return text


def render_expr_uncached(expr: ast.Expr) -> str:
    """:func:`render_expr` reading and filling no kept text (subquery
    bodies excepted): what the paranoid checks compare the kept text
    with."""
    return _render(expr, render_expr_uncached)


def _render(expr: ast.Expr, render) -> str:
    """Render one node; *render* renders its children."""
    if isinstance(expr, ast.Literal):
        return render_literal(expr.value)
    if isinstance(expr, ast.ColumnRef):
        if expr.qualifier:
            return f"{expr.qualifier}.{expr.name}"
        return expr.name
    if isinstance(expr, ast.BindParam):
        # Canonical Oracle-style form; ``?`` binds render as :1, :2, ...
        # which re-parse to the same keys.
        return f":{expr.key}"
    if isinstance(expr, ast.Star):
        return f"{expr.qualifier}.*" if expr.qualifier else "*"
    if isinstance(expr, ast.BinOp):
        left = _render_operand(render, expr.left)
        right = _render_operand(render, expr.right)
        return f"{left} {expr.op} {right}"
    if isinstance(expr, ast.And):
        return " AND ".join(
            _render_bool_operand(render, op, ast.Or) for op in expr.operands
        )
    if isinstance(expr, ast.Or):
        return " OR ".join(
            _render_bool_operand(render, op, ast.And) for op in expr.operands
        )
    if isinstance(expr, ast.Not):
        return f"NOT ({render(expr.operand)})"
    if isinstance(expr, ast.IsNull):
        middle = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{_render_operand(render, expr.operand)} {middle}"
    if isinstance(expr, ast.Between):
        neg = "NOT " if expr.negated else ""
        return (
            f"{_render_operand(render, expr.operand)} {neg}BETWEEN "
            f"{_render_operand(render, expr.low)} AND "
            f"{_render_operand(render, expr.high)}"
        )
    if isinstance(expr, ast.Like):
        neg = "NOT " if expr.negated else ""
        return (
            f"{_render_operand(render, expr.operand)} {neg}LIKE "
            f"{render(expr.pattern)}"
        )
    if isinstance(expr, ast.InList):
        neg = "NOT " if expr.negated else ""
        items = ", ".join(render(item) for item in expr.items)
        return f"{_render_operand(render, expr.operand)} {neg}IN ({items})"
    if isinstance(expr, ast.RowExpr):
        return "(" + ", ".join(render(item) for item in expr.items) + ")"
    if isinstance(expr, ast.FuncCall):
        distinct = "DISTINCT " if expr.distinct else ""
        args = ", ".join(render(arg) for arg in expr.args)
        return f"{expr.name}({distinct}{args})"
    if isinstance(expr, ast.WindowFunc):
        return _render_window(expr, render)
    if isinstance(expr, ast.Case):
        parts = ["CASE"]
        for cond, result in expr.whens:
            parts.append(f"WHEN {render(cond)} THEN {render(result)}")
        if expr.default is not None:
            parts.append(f"ELSE {render(expr.default)}")
        parts.append("END")
        return " ".join(parts)
    if isinstance(expr, ast.SubqueryExpr):
        return _render_subquery_expr(expr, render)
    raise UnsupportedError(f"cannot render expression node {type(expr).__name__}")


def _render_operand(render, expr: ast.Expr) -> str:
    """Render a sub-operand, parenthesising compound expressions."""
    text = render(expr)
    if isinstance(expr, (ast.BinOp, ast.And, ast.Or, ast.Case)):
        return f"({text})"
    return text


def _render_bool_operand(render, expr: ast.Expr, wrap_type: type) -> str:
    text = render(expr)
    if isinstance(expr, wrap_type):
        return f"({text})"
    return text


def _render_window(expr: ast.WindowFunc, render) -> str:
    parts: list[str] = []
    if expr.partition_by:
        cols = ", ".join(render(e) for e in expr.partition_by)
        parts.append(f"PARTITION BY {cols}")
    if expr.order_by:
        items = ", ".join(
            render(o.expr) + (" DESC" if o.descending else "")
            for o in expr.order_by
        )
        parts.append(f"ORDER BY {items}")
    if expr.frame is not None:
        parts.append(
            f"{expr.frame.kind} BETWEEN {_render_bound(expr.frame.start)} "
            f"AND {_render_bound(expr.frame.end)}"
        )
    over = " ".join(parts)
    return f"{render(expr.func)} OVER ({over})"


def _render_bound(bound: object) -> str:
    if isinstance(bound, tuple):
        direction, offset = bound
        return f"{offset} {direction}"
    return str(bound)


def _render_subquery_expr(expr: ast.SubqueryExpr, render) -> str:
    body = render_statement(expr.query)
    if expr.kind == "EXISTS":
        prefix = "NOT EXISTS" if expr.negated else "EXISTS"
        return f"{prefix} ({body})"
    if expr.kind == "IN":
        middle = "NOT IN" if expr.negated else "IN"
        return f"{_render_operand(render, expr.left)} {middle} ({body})"
    if expr.kind == "QUANTIFIED":
        return (
            f"{_render_operand(render, expr.left)} {expr.op} "
            f"{expr.quantifier} ({body})"
        )
    if expr.kind == "SCALAR":
        return f"({body})"
    raise UnsupportedError(f"unknown subquery kind {expr.kind!r}")


def render_statement(stmt) -> str:
    """Render a SelectStmt or SetOpStmt to SQL.

    Accepts either the parser's syntactic statements or any object that
    provides its own ``to_sql()`` method (query-tree blocks do), so a
    SubqueryExpr can hold either representation.
    """
    if hasattr(stmt, "to_sql"):
        return stmt.to_sql()
    if isinstance(stmt, ast.SetOpStmt):
        left = render_statement(stmt.left)
        right = render_statement(stmt.right)
        text = f"{left} {stmt.op} {right}"
        if stmt.order_by:
            items = ", ".join(
                render_expr(o.expr) + (" DESC" if o.descending else "")
                for o in stmt.order_by
            )
            text += f" ORDER BY {items}"
        return text
    if isinstance(stmt, ast.SelectStmt):
        return _render_select(stmt)
    raise UnsupportedError(f"cannot render statement {type(stmt).__name__}")


def _render_select(stmt: ast.SelectStmt) -> str:
    parts = ["SELECT"]
    if stmt.distinct:
        parts.append("DISTINCT")
    items = []
    for item in stmt.select_items:
        text = render_expr(item.expr)
        if item.alias:
            text += f" AS {item.alias}"
        items.append(text)
    parts.append(", ".join(items))
    parts.append("FROM")
    parts.append(", ".join(_render_table_expr(t) for t in stmt.from_items))
    if stmt.where is not None:
        parts.append("WHERE " + render_expr(stmt.where))
    if stmt.group_by:
        parts.append("GROUP BY " + ", ".join(render_expr(e) for e in stmt.group_by))
    if stmt.having is not None:
        parts.append("HAVING " + render_expr(stmt.having))
    if stmt.order_by:
        items = ", ".join(
            render_expr(o.expr) + (" DESC" if o.descending else "")
            for o in stmt.order_by
        )
        parts.append(f"ORDER BY {items}")
    return " ".join(parts)


def _render_table_expr(table: ast.TableExpr) -> str:
    if isinstance(table, ast.TableName):
        if table.alias and table.alias != table.name:
            return f"{table.name} {table.alias}"
        return table.name
    if isinstance(table, ast.DerivedTable):
        body = render_statement(table.query)
        alias = f" {table.alias}" if table.alias else ""
        return f"({body}){alias}"
    if isinstance(table, ast.JoinExpr):
        left = _render_table_expr(table.left)
        right = _render_table_expr(table.right)
        if table.kind == "CROSS":
            return f"{left} CROSS JOIN {right}"
        keyword = {"INNER": "JOIN", "LEFT": "LEFT OUTER JOIN",
                   "RIGHT": "RIGHT OUTER JOIN", "FULL": "FULL OUTER JOIN"}[table.kind]
        return f"{left} {keyword} {right} ON {render_expr(table.condition)}"
    raise UnsupportedError(f"cannot render table expression {type(table).__name__}")
