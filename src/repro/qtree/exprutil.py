"""Expression rewriting utilities used by transformations.

All rewriters return new trees and never mutate their inputs
(expressions are immutable, see :mod:`repro.sql.ast`): an unchanged
subtree comes back as the same object, so only the path from the root to
a replaced node is rebuilt.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sql import ast


def map_expr(expr: ast.Expr, fn: Callable[[ast.Expr], Optional[ast.Expr]]) -> ast.Expr:
    """Rebuild *expr* bottom-up, replacing any node for which *fn* returns
    a non-None expression.  ``fn`` sees each node after its children
    were mapped; it is not applied to subquery bodies.

    A subtree in which nothing was replaced comes back as the same
    object, unless it holds a mutable node (a BindParam or a
    SubqueryExpr, see :mod:`repro.sql.ast`): those are copied, a built
    subquery body with them."""
    rebuilt = _rebuild_children(expr, fn)
    replacement = fn(rebuilt)
    return replacement if replacement is not None else rebuilt


def _same(new: list, old: list) -> bool:
    return all(a is b for a, b in zip(new, old, strict=True))


def _rebuild_children(expr: ast.Expr, fn) -> ast.Expr:
    if isinstance(expr, (ast.ColumnRef, ast.Literal, ast.Star)):
        return expr
    if isinstance(expr, ast.BinOp):
        left, right = map_expr(expr.left, fn), map_expr(expr.right, fn)
        if left is expr.left and right is expr.right:
            return expr
        return ast.BinOp(expr.op, left, right)
    if isinstance(expr, (ast.And, ast.Or)):
        operands = [map_expr(op, fn) for op in expr.operands]
        if _same(operands, expr.operands):
            return expr
        return type(expr)(operands)
    if isinstance(expr, ast.Not):
        operand = map_expr(expr.operand, fn)
        return expr if operand is expr.operand else ast.Not(operand)
    if isinstance(expr, ast.IsNull):
        operand = map_expr(expr.operand, fn)
        if operand is expr.operand:
            return expr
        return ast.IsNull(operand, expr.negated)
    if isinstance(expr, ast.Between):
        parts = [map_expr(e, fn) for e in (expr.operand, expr.low, expr.high)]
        if _same(parts, [expr.operand, expr.low, expr.high]):
            return expr
        return ast.Between(*parts, expr.negated)
    if isinstance(expr, ast.Like):
        operand, pattern = map_expr(expr.operand, fn), map_expr(expr.pattern, fn)
        if operand is expr.operand and pattern is expr.pattern:
            return expr
        return ast.Like(operand, pattern, expr.negated)
    if isinstance(expr, ast.InList):
        operand = map_expr(expr.operand, fn)
        items = [map_expr(item, fn) for item in expr.items]
        if operand is expr.operand and _same(items, expr.items):
            return expr
        return ast.InList(operand, items, expr.negated)
    if isinstance(expr, ast.RowExpr):
        items = [map_expr(item, fn) for item in expr.items]
        return expr if _same(items, expr.items) else ast.RowExpr(items)
    if isinstance(expr, ast.FuncCall):
        args = [map_expr(arg, fn) for arg in expr.args]
        if _same(args, expr.args):
            return expr
        return ast.FuncCall(expr.name, args, expr.distinct)
    if isinstance(expr, ast.WindowFunc):
        func = map_expr(expr.func, fn)
        partition_by = [map_expr(e, fn) for e in expr.partition_by]
        order_exprs = [map_expr(o.expr, fn) for o in expr.order_by]
        if (
            func is expr.func
            and _same(partition_by, expr.partition_by)
            and _same(order_exprs, [o.expr for o in expr.order_by])
        ):
            return expr
        return ast.WindowFunc(
            func,
            partition_by,
            [ast.OrderItem(e, o.descending)
             for e, o in zip(order_exprs, expr.order_by, strict=True)],
            expr.frame,
        )
    if isinstance(expr, ast.Case):
        whens = [(map_expr(c, fn), map_expr(r, fn)) for c, r in expr.whens]
        default = map_expr(expr.default, fn) if expr.default is not None else None
        if default is expr.default and all(
            c is old_c and r is old_r
            for (c, r), (old_c, old_r) in zip(whens, expr.whens, strict=True)
        ):
            return expr
        return ast.Case(whens, default)
    if isinstance(expr, ast.SubqueryExpr):
        query = expr.query.clone() if hasattr(expr.query, "clone") else expr.query
        return ast.SubqueryExpr(
            expr.kind,
            query,
            map_expr(expr.left, fn) if expr.left is not None else None,
            expr.op,
            expr.quantifier,
            expr.negated,
        )
    return expr.clone()


def substitute_columns(
    expr: ast.Expr, mapping: dict[tuple[str, str], ast.Expr]
) -> ast.Expr:
    """Replace ColumnRefs by expressions, keyed by (qualifier, name).

    This is the core of view merging: references to the view's output
    columns are replaced by the view's select expressions.
    """

    def replace(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.ColumnRef) and node.qualifier:
            target = mapping.get((node.qualifier, node.name))
            if target is not None:
                return target.clone()
        return None

    return map_expr(expr, replace)


def rename_qualifiers(expr: ast.Expr, mapping: dict[str, str]) -> ast.Expr:
    """Rewrite alias qualifiers per *mapping*; also descends into
    subquery bodies so correlated references are renamed too."""

    def replace(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.ColumnRef) and node.qualifier in mapping:
            return ast.ColumnRef(mapping[node.qualifier], node.name)
        if isinstance(node, ast.SubqueryExpr) and hasattr(node.query, "iter_blocks"):
            rename_qualifiers_in_node(node.query, mapping)
        return None

    return map_expr(expr, replace)


def rename_qualifiers_in_node(node, mapping: dict[str, str]) -> None:
    """In-place alias rename across a query-tree node (used after a clone;
    never on shared trees)."""
    from .blocks import QueryBlock

    for block in node.iter_blocks():
        if not isinstance(block, QueryBlock):
            continue
        block.select_items = [
            ast.SelectItem(rename_qualifiers(i.expr, mapping), i.alias)
            for i in block.select_items
        ]
        block.where_conjuncts = [
            rename_qualifiers(c, mapping) for c in block.where_conjuncts
        ]
        block.having_conjuncts = [
            rename_qualifiers(c, mapping) for c in block.having_conjuncts
        ]
        block.group_by = [rename_qualifiers(g, mapping) for g in block.group_by]
        block.order_by = [
            ast.OrderItem(rename_qualifiers(o.expr, mapping), o.descending)
            for o in block.order_by
        ]
        for item in block.from_items:
            item.join_conjuncts = [
                rename_qualifiers(c, mapping) for c in item.join_conjuncts
            ]


def substitute_columns_in_node(node, mapping: dict[tuple[str, str], ast.Expr]) -> None:
    """In-place column substitution across a query-tree node, descending
    into nested blocks (their correlated references to the substituted
    view must be rewritten too)."""
    from .blocks import QueryBlock

    for block in node.iter_blocks():
        if not isinstance(block, QueryBlock):
            continue
        block.select_items = [
            ast.SelectItem(substitute_columns(i.expr, mapping), i.alias)
            for i in block.select_items
        ]
        block.where_conjuncts = [
            substitute_columns(c, mapping) for c in block.where_conjuncts
        ]
        block.having_conjuncts = [
            substitute_columns(c, mapping) for c in block.having_conjuncts
        ]
        block.group_by = [substitute_columns(g, mapping) for g in block.group_by]
        block.order_by = [
            ast.OrderItem(substitute_columns(o.expr, mapping), o.descending)
            for o in block.order_by
        ]
        for item in block.from_items:
            item.join_conjuncts = [
                substitute_columns(c, mapping) for c in item.join_conjuncts
            ]


def aliases_referenced(expr: ast.Expr) -> set[str]:
    """Alias qualifiers referenced by *expr*, including inside subquery
    bodies (their correlation references)."""
    facts = expr.facts
    result = {ref.qualifier for ref in facts.column_refs}
    for sub in facts.subqueries:
        if hasattr(sub.query, "iter_blocks"):
            result.update(ref.qualifier for ref in sub.query.correlation_refs()
                          if ref.qualifier)
    return result


def equality_columns(conjunct: ast.Expr) -> Optional[tuple[ast.ColumnRef, ast.ColumnRef]]:
    """If *conjunct* is ``col = col`` between two different aliases,
    return the pair; else None."""
    if (
        isinstance(conjunct, ast.BinOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ast.ColumnRef)
        and isinstance(conjunct.right, ast.ColumnRef)
        and conjunct.left.qualifier != conjunct.right.qualifier
    ):
        return conjunct.left, conjunct.right
    return None


def normalize_predicate(expr: ast.Expr) -> ast.Expr:
    """Canonicalise a predicate: flatten AND/OR, push NOT inward where a
    simple complement exists, fold ``NOT NOT``, and normalise quantified
    subqueries (``= ANY`` to IN, ``<> ALL`` to NOT IN)."""
    expr = _push_not(expr, negate=False)
    return expr


def _push_not(expr: ast.Expr, negate: bool) -> ast.Expr:
    if isinstance(expr, ast.Not):
        return _push_not(expr.operand, not negate)
    if isinstance(expr, ast.And):
        operands = [_push_not(op, negate) for op in expr.operands]
        node: ast.Expr = ast.Or(operands) if negate else ast.And(operands)
        return _flatten_bool(node)
    if isinstance(expr, ast.Or):
        operands = [_push_not(op, negate) for op in expr.operands]
        node = ast.And(operands) if negate else ast.Or(operands)
        return _flatten_bool(node)
    if isinstance(expr, ast.BinOp) and expr.is_comparison and negate:
        return ast.BinOp(
            ast.NEGATED_COMPARISON[expr.op],
            _normalize_sub(expr.left),
            _normalize_sub(expr.right),
        )
    if isinstance(expr, ast.IsNull):
        return ast.IsNull(_normalize_sub(expr.operand),
                          expr.negated != negate)
    if isinstance(expr, ast.SubqueryExpr):
        return _normalize_subquery(expr, negate)
    if isinstance(expr, (ast.InList, ast.Between, ast.Like)) and negate:
        parts = [ast.shared_copy(child) for child in expr.children()]
        if isinstance(expr, ast.InList):
            return ast.InList(parts[0], parts[1:], not expr.negated)
        return type(expr)(*parts, not expr.negated)
    if negate:
        return ast.Not(_normalize_sub(expr))
    return _normalize_sub(expr)


def _flatten_bool(expr: ast.Expr) -> ast.Expr:
    if isinstance(expr, ast.And):
        flat: list[ast.Expr] = []
        for op in expr.operands:
            if isinstance(op, ast.And):
                flat.extend(op.operands)
            else:
                flat.append(op)
        return flat[0] if len(flat) == 1 else ast.And(flat)
    if isinstance(expr, ast.Or):
        flat = []
        for op in expr.operands:
            if isinstance(op, ast.Or):
                flat.extend(op.operands)
            else:
                flat.append(op)
        return flat[0] if len(flat) == 1 else ast.Or(flat)
    return expr


def _normalize_sub(expr: ast.Expr) -> ast.Expr:
    """Normalise subquery expressions nested inside a scalar expression."""

    def replace(node: ast.Expr) -> Optional[ast.Expr]:
        if isinstance(node, ast.SubqueryExpr):
            return _normalize_subquery(node, negate=False)
        return None

    return map_expr(expr, replace)


def _normalize_subquery(expr: ast.SubqueryExpr, negate: bool) -> ast.SubqueryExpr:
    kind = expr.kind
    op = expr.op
    quantifier = expr.quantifier
    negated = expr.negated != negate
    left = expr.left.clone() if expr.left is not None else None
    query = expr.query.clone() if hasattr(expr.query, "clone") else expr.query
    if kind == "QUANTIFIED":
        if op == "=" and quantifier == "ANY":
            return ast.SubqueryExpr("IN", query, left=left, negated=negated)
        if op == "<>" and quantifier == "ALL":
            return ast.SubqueryExpr("IN", query, left=left, negated=not negated)
        if negate:
            # NOT (x < ANY q) == x >= ALL q; NOT (x < ALL q) == x >= ANY q
            flipped = ast.NEGATED_COMPARISON[op]
            other = "ALL" if quantifier == "ANY" else "ANY"
            return ast.SubqueryExpr(
                "QUANTIFIED", query, left=left, op=flipped, quantifier=other
            )
    return ast.SubqueryExpr(kind, query, left=left, op=op,
                            quantifier=quantifier, negated=negated)
