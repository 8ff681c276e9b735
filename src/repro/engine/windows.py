"""Window-function computation shared by the reference evaluator and the
plan executor.

Supports AVG/SUM/COUNT/MIN/MAX with whole-partition or UNBOUNDED
PRECEDING..CURRENT ROW frames (ROWS and RANGE; RANGE includes peers of
the current row), plus ROW_NUMBER and RANK.  Results are written into the
row dicts under :func:`~repro.engine.expressions.window_key`.
"""

from __future__ import annotations

from typing import Callable

from ..errors import UnsupportedError
from ..sql import ast
from .expressions import Accumulator, ExpressionCompiler, Row, window_key


def compute_window(
    window: ast.WindowFunc,
    rows: list[Row],
    compiler: ExpressionCompiler,
    sort_key: Callable[[object, bool], object],
) -> None:
    """Compute *window* over *rows* in place."""
    key = window_key(window)
    part_fns = [compiler.compile(e) for e in window.partition_by]
    order_fns = [compiler.compile(o.expr) for o in window.order_by]
    name = window.func.name

    partitions: dict[tuple, list[Row]] = {}
    for row in rows:
        pkey = tuple(fn(row) for fn in part_fns)
        partitions.setdefault(pkey, []).append(row)

    for partition in partitions.values():
        if order_fns:
            ordered = sorted(
                partition,
                key=lambda row: tuple(
                    sort_key(fn(row), item.descending)
                    for fn, item in zip(order_fns, window.order_by)
                ),
            )
        else:
            ordered = list(partition)
        _fill_partition(window, name, key, ordered, order_fns, compiler)


def _fill_partition(
    window: ast.WindowFunc,
    name: str,
    key: str,
    ordered: list[Row],
    order_fns: list,
    compiler: ExpressionCompiler,
) -> None:
    if name == "ROW_NUMBER":
        for i, row in enumerate(ordered):
            row[key] = i + 1
        return
    if name == "RANK":
        previous = None
        rank = 0
        for i, row in enumerate(ordered):
            values = tuple(fn(row) for fn in order_fns)
            if values != previous:
                rank = i + 1
                previous = values
            row[key] = rank
        return

    arg_fn = (
        compiler.compile(window.func.args[0])
        if window.func.args and not isinstance(window.func.args[0], ast.Star)
        else None
    )
    whole_partition = not window.order_by or (
        window.frame is not None
        and window.frame.start == "UNBOUNDED PRECEDING"
        and window.frame.end == "UNBOUNDED FOLLOWING"
    )
    running = window.frame is None or (
        window.frame.start == "UNBOUNDED PRECEDING"
        and window.frame.end == "CURRENT ROW"
    )
    if whole_partition:
        acc = Accumulator(name, window.func.distinct)
        for row in ordered:
            _accumulate(acc, arg_fn, row)
        value = acc.result()
        for row in ordered:
            row[key] = value
    elif running:
        is_range = window.frame is None or window.frame.kind == "RANGE"
        acc = Accumulator(name, window.func.distinct)
        i = 0
        n = len(ordered)
        while i < n:
            j = i
            if is_range and order_fns:
                current = tuple(fn(ordered[i]) for fn in order_fns)
                while j + 1 < n and tuple(
                    fn(ordered[j + 1]) for fn in order_fns
                ) == current:
                    j += 1
            for k in range(i, j + 1):
                _accumulate(acc, arg_fn, ordered[k])
            value = acc.result()
            for k in range(i, j + 1):
                ordered[k][key] = value
            i = j + 1
    else:
        raise UnsupportedError(
            "only UNBOUNDED PRECEDING..CURRENT ROW and whole-partition "
            "window frames are supported"
        )


def _accumulate(acc: Accumulator, arg_fn, row: Row) -> None:
    if arg_fn is None:
        acc.add_star()
    else:
        acc.add(arg_fn(row))
