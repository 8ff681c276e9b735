"""Bind-variable utilities over query trees.

Bind placeholders survive parsing as :class:`~repro.sql.ast.BindParam`
nodes and stay in the tree (and the physical plan) through optimization,
so one cached plan serves any bind values.  The helpers here support the
service layer's bind peeking (Oracle-style: the optimizer estimates
selectivities from the first execution's values) and plan-cache
dependency tracking.
"""

from __future__ import annotations

from typing import Iterator

from ..sql import ast
from .blocks import QueryBlock, QueryNode


def iter_exprs(tree: QueryNode) -> Iterator[ast.Expr]:
    """Yield every top-level expression in every block of *tree*:
    select items, WHERE/HAVING/join conjuncts, group-by and order-by
    expressions.  Subquery bodies are covered because ``iter_blocks``
    yields their blocks too."""
    for block in tree.iter_blocks():
        if not isinstance(block, QueryBlock):
            continue
        for item in block.select_items:
            yield item.expr
        yield from block.all_conjuncts()
        yield from block.group_by
        for order in block.order_by:
            yield order.expr


def bind_params(tree: QueryNode) -> list[ast.BindParam]:
    """Every BindParam node in *tree*, in deterministic order."""
    found: list[ast.BindParam] = []
    for expr in iter_exprs(tree):
        for node in expr.walk():
            if isinstance(node, ast.BindParam):
                found.append(node)
    return found


def bind_keys(tree: QueryNode) -> set[str]:
    """The set of bind keys *tree* requires values for."""
    return {param.key for param in bind_params(tree)}


def apply_peeks(tree: QueryNode, binds: dict) -> None:
    """Record *binds* as peeked values on every BindParam in *tree*.

    Keys absent from *binds* are left unpeeked; selectivity estimation
    then falls back to default constants for those predicates."""
    for param in bind_params(tree):
        if param.key in binds:
            param.peeked = binds[param.key]


def clear_peeks(tree: QueryNode) -> None:
    """Remove peeked values from every BindParam in *tree*."""
    for param in bind_params(tree):
        param.peeked = ast.NO_PEEK


def referenced_tables(tree: QueryNode) -> set[str]:
    """Base-table names referenced anywhere in *tree* (plan-cache
    dependency set)."""
    tables: set[str] = set()
    for block in tree.iter_blocks():
        if isinstance(block, QueryBlock):
            for item in block.from_items:
                if item.is_base_table:
                    tables.add(item.table_name.lower())
    return tables
