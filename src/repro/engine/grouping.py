"""Group-by evaluation shared by the reference evaluator and the plan
executor, including ROLLUP / CUBE / GROUPING SETS semantics.

For each grouping set, input rows are hashed on that set's key columns;
output rows carry the aggregate results (under
:func:`~repro.engine.expressions.agg_key`), NULL for every rolled-up
grouping column, and the GROUPING(col) indicators (under
:func:`~repro.engine.expressions.grouping_key`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..sql import ast
from .expressions import Accumulator, Row, agg_key, grouping_key

#: an aggregate to compute: (call, compiled-arg-or-None, is_count_star)
AggSpec = tuple[ast.FuncCall, Optional[Callable[[Row], object]], bool]


def evaluate_group_by(
    rows: Sequence[Row],
    group_exprs: Sequence[ast.Expr],
    group_fns: Sequence[Callable[[Row], object]],
    grouping_sets: Optional[Sequence[Sequence[int]]],
    agg_specs: Sequence[AggSpec],
    on_row: Optional[Callable[[], None]] = None,
    empty_base: Optional[Row] = None,
) -> list[Row]:
    """Compute grouped output rows.

    *on_row* is called once per (row, set) accumulation step — the
    executor uses it for work accounting.
    """
    sets: list[list[int]] = (
        [list(s) for s in grouping_sets]
        if grouping_sets is not None
        else [list(range(len(group_exprs)))]
    )

    output: list[Row] = []
    for set_indices in sets:
        set_fns = [group_fns[i] for i in set_indices]
        groups: dict[tuple, dict] = {}
        order: list[tuple] = []
        for row in rows:
            if on_row is not None:
                on_row()
            key = tuple(fn(row) for fn in set_fns)
            group = groups.get(key)
            if group is None:
                group = {
                    "row": row,
                    "accs": [
                        Accumulator(call.name, call.distinct)
                        for call, _fn, _star in agg_specs
                    ],
                }
                groups[key] = group
                order.append(key)
            for acc, (call, arg_fn, is_star) in zip(group["accs"], agg_specs):
                if is_star:
                    acc.add_star()
                else:
                    acc.add(arg_fn(row))

        if not groups and not set_indices and grouping_sets is None \
                and not group_exprs:
            # scalar aggregate over empty input: one all-NULL group
            empty: Row = dict(empty_base or {})
            for call, _fn, _star in agg_specs:
                empty[agg_key(call)] = Accumulator(
                    call.name, call.distinct
                ).result()
            output.append(empty)
            continue
        if not groups and grouping_sets is not None and not set_indices:
            # a grand-total set over empty input still yields one row
            empty = dict(empty_base or {})
            for call, _fn, _star in agg_specs:
                empty[agg_key(call)] = Accumulator(
                    call.name, call.distinct
                ).result()
            _mark_rollup(empty, group_exprs, set_indices)
            output.append(empty)
            continue

        for key in order:
            group = groups[key]
            row = dict(group["row"])
            for acc, (call, _fn, _star) in zip(group["accs"], agg_specs):
                row[agg_key(call)] = acc.result()
            if grouping_sets is not None:
                _mark_rollup(row, group_exprs, set_indices)
            output.append(row)
    return output


def _mark_rollup(
    row: Row, group_exprs: Sequence[ast.Expr], set_indices: Sequence[int]
) -> None:
    """NULL out rolled-up grouping columns and set GROUPING indicators."""
    kept = set(set_indices)
    for i, expr in enumerate(group_exprs):
        assert isinstance(expr, ast.ColumnRef)
        row[grouping_key(expr)] = 0 if i in kept else 1
        if i not in kept:
            row[f"{expr.qualifier}.{expr.name}"] = None