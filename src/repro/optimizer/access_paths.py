"""Access-path generation for one from-item.

For a base table this produces the full-table scan plus every usable
index path: equality binds on a prefix of the index columns, optionally a
range bound on the following column, residual conjuncts applied post
fetch.

Bind expressions may reference *other* aliases, making the path
*parameterised*:

* references to other from-items of the same block — the path is only
  usable as the inner of an index nested-loop join, after those aliases
  are bound (the join-order enumerator checks
  :meth:`~repro.optimizer.plans.IndexScan.outer_aliases`);
* references to aliases outside the block entirely — correlation binds;
  they behave as runtime parameters, which is precisely how a correlated
  subquery evaluated under tuple-iteration semantics gets indexed access
  on "the local column in the correlation predicate" (§2.2.1).

A full table scan, by contrast, may only evaluate conjuncts whose
block-local references are confined to the scanned alias.
"""

from __future__ import annotations

from typing import Optional

from ..catalog.schema import TableDef
from ..catalog.statistics import TableStats
from ..sql import ast
from .costmodel import CostModel
from .plans import IndexScan, Plan, TableScan
from .predicates import ConjunctFacts, PredicateAnalysis
from .selectivity import StatsContext, conjuncts_selectivity

_RANGE_OPS = ("<", "<=", ">", ">=")


def base_table_paths(
    alias: str,
    table: TableDef,
    table_stats: Optional[TableStats],
    conjuncts: list[ast.Expr],
    analysis: PredicateAnalysis,
    stats: StatsContext,
    cost_model: CostModel,
) -> list[Plan]:
    """All access paths for a base-table from-item.

    *conjuncts* are the block's conjuncts that mention this alias;
    *analysis* is the block's predicate analysis (it tells sibling
    references from outer-block correlation parameters).
    """
    row_count = float(table_stats.row_count) if table_stats else 1000.0
    bit = analysis.bits[alias]
    bindable = [
        facts for facts in map(analysis.facts, conjuncts)
        if not facts.has_subquery
    ]
    # a scan may evaluate what references no other alias of the block
    truly_local = [f for f in bindable if not f.mask & ~bit]
    paths: list[Plan] = [
        _full_scan(
            alias, table, row_count, [f.conjunct for f in truly_local],
            stats, cost_model,
        )
    ]
    eq_binds, range_binds = _classify(alias, bit, bindable)
    for index in table.indexes:
        path = _index_path(
            alias, table, index, row_count, eq_binds, range_binds,
            truly_local, stats, cost_model,
        )
        if path is not None:
            paths.append(path)
    return paths


def _full_scan(
    alias: str,
    table: TableDef,
    row_count: float,
    local_conjuncts: list[ast.Expr],
    stats: StatsContext,
    cost_model: CostModel,
) -> TableScan:
    selectivity = conjuncts_selectivity(local_conjuncts, stats)
    cost = row_count * (
        cost_model.scan_row + cost_model.predicate_eval * len(local_conjuncts)
    )
    return TableScan(
        alias, table.name, local_conjuncts, cost,
        max(row_count * selectivity, 0.0),
    )


def _classify(alias: str, bit: int, bindable: list[ConjunctFacts]):
    """Split bindable conjuncts into equality binds (column -> (expr,
    facts)) and range binds (column -> (op, expr, facts))."""
    eq_binds: dict[str, tuple[ast.Expr, ConjunctFacts]] = {}
    range_binds: dict[str, tuple[str, ast.Expr, ConjunctFacts]] = {}
    for facts in bindable:
        bound = _bind_of(alias, bit, facts)
        if bound is None:
            continue
        column, op, expr = bound
        if op == "=" and column not in eq_binds:
            eq_binds[column] = (expr, facts)
        elif op in _RANGE_OPS and column not in range_binds:
            range_binds[column] = (op, expr, facts)
    return eq_binds, range_binds


def _bind_of(
    alias: str, bit: int, facts: ConjunctFacts
) -> Optional[tuple[str, str, ast.Expr]]:
    """Match ``alias.col <op> expr`` where expr does not reference alias."""
    conjunct = facts.conjunct
    if not isinstance(conjunct, ast.BinOp) or not conjunct.is_comparison:
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    other_side = facts.right_mask
    if isinstance(right, ast.ColumnRef) and right.qualifier == alias and not (
        isinstance(left, ast.ColumnRef) and left.qualifier == alias
    ):
        left, right = right, left
        op = ast.MIRRORED_COMPARISON[op]
        other_side = facts.left_mask
    if not (isinstance(left, ast.ColumnRef) and left.qualifier == alias):
        return None
    if other_side & bit:
        return None
    return left.name, op, right


def _index_path(
    alias: str,
    table: TableDef,
    index,
    row_count: float,
    eq_binds: dict[str, tuple[ast.Expr, ConjunctFacts]],
    range_binds: dict[str, tuple[str, ast.Expr, ConjunctFacts]],
    truly_local: list[ConjunctFacts],
    stats: StatsContext,
    cost_model: CostModel,
) -> Optional[IndexScan]:
    used_eq: list[tuple[str, ast.Expr]] = []
    covered: list[ConjunctFacts] = []
    range_bind: Optional[tuple[str, str, ast.Expr]] = None
    for column in index.columns:
        if column in eq_binds:
            expr, facts = eq_binds[column]
            used_eq.append((column, expr))
            covered.append(facts)
            continue
        if column in range_binds:
            op, expr, facts = range_binds[column]
            range_bind = (column, op, expr)
            covered.append(facts)
        break
    if not used_eq and range_bind is None:
        return None

    covered_conjuncts = [f.conjunct for f in covered]
    index_selectivity = conjuncts_selectivity(covered_conjuncts, stats)
    matched = max(row_count * index_selectivity, 0.0)

    covered_bits = sum(f.bit for f in covered)
    post = [f.conjunct for f in truly_local if not f.bit & covered_bits]
    post_selectivity = conjuncts_selectivity(post, stats)

    cost = (
        cost_model.index_probe
        + matched * cost_model.index_row
        + matched * cost_model.predicate_eval * len(post)
    )
    return IndexScan(
        alias,
        table.name,
        index,
        used_eq,
        range_bind,
        post,
        cost,
        max(matched * post_selectivity, 0.0),
        covered_conjuncts=covered_conjuncts,
    )
