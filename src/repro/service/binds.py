"""Bind normalization and the adaptive-cursor-sharing bind profile.

``normalize_binds`` maps user-supplied bind values — a positional
sequence or a name -> value mapping — onto the canonical lowercase keys
:class:`~repro.sql.ast.BindParam` uses (positional ``?`` placeholders
are keyed ``"1"``, ``"2"``, ... left to right).

The *bind profile* of a cached plan records, per bind-sensitive
predicate, the selectivity the optimizer assumed from the peeked values.
When a later execution supplies different values, the profile re-derives
the selectivity those values would get; a large ratio between the two
means the cached plan was shaped for a very different data volume — the
signal Oracle's adaptive cursor sharing uses to spawn a new child
cursor, and that our service layer uses to re-optimize.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from ..catalog.statistics import ColumnStats, StatisticsRegistry, TableStats
from ..errors import ExecutionError
from ..optimizer.selectivity import conjunct_selectivity
from ..qtree.blocks import QueryBlock, QueryNode
from ..sql import ast
from ..sql.render import render_expr


def normalize_binds(binds: object) -> dict:
    """Canonicalize *binds* to a ``key -> value`` dict.

    Accepts ``None``, a mapping (keys are lowercased; ``:name`` and
    1-based positional ``1`` both work), or a positional sequence
    (mapped to keys ``"1"``, ``"2"``, ...).
    """
    if binds is None:
        return {}
    if isinstance(binds, Mapping):
        return {str(key).lower(): value for key, value in binds.items()}
    if isinstance(binds, (list, tuple)):
        return {str(i + 1): value for i, value in enumerate(binds)}
    raise ExecutionError(
        f"bind values must be a mapping or sequence, not {type(binds).__name__}"
    )


class _AliasStats:
    """StatsContext over a fixed alias -> base-table mapping."""

    def __init__(self, alias_tables: Mapping[str, str],
                 statistics: StatisticsRegistry):
        self._alias_tables = alias_tables
        self._statistics = statistics

    def table_stats(self, alias: str) -> Optional[TableStats]:
        table = self._alias_tables.get(alias)
        return self._statistics.get(table) if table else None

    def column_stats(self, alias: str, column: str) -> Optional[ColumnStats]:
        stats = self.table_stats(alias)
        return stats.column(column) if stats else None


@dataclass
class BindPredicate:
    """One bind-sensitive conjunct of a cached plan."""

    #: rendered predicate text (with peeked values cleared), for display
    text: str
    #: pristine clone of the conjunct, peeks cleared
    conjunct: ast.Expr
    #: alias -> base-table map of the owning block
    alias_tables: dict
    #: selectivity estimated from the peeked bind values at optimize time
    peeked_selectivity: float
    #: a second clone, re-peeked with each call's binds under _lock (the
    #: estimator reads peeked values off the tree), and its placeholders
    _probe: ast.Expr = field(init=False, repr=False, compare=False)
    _placeholders: list = field(init=False, repr=False, compare=False)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._probe = self.conjunct.clone()
        self._placeholders = [
            node for node in self._probe.walk()
            if isinstance(node, ast.BindParam)
        ]

    def selectivity_for(self, binds: Mapping,
                        statistics: StatisticsRegistry) -> Optional[float]:
        """Selectivity this predicate would get with *binds* peeked, or
        None when a required bind value is missing."""
        placeholders = self._placeholders
        for node in placeholders:
            if node.key not in binds:
                return None
        with self._lock:
            for node in placeholders:
                node.peeked = binds[node.key]
            return conjunct_selectivity(
                self._probe, _AliasStats(self.alias_tables, statistics)
            )


def extract_bind_profile(
    tree: QueryNode, statistics: StatisticsRegistry
) -> list[BindPredicate]:
    """Build the bind profile of *tree* (call after peeks are applied, so
    ``peeked_selectivity`` reflects the values the optimizer saw)."""
    profile: list[BindPredicate] = []
    for block in tree.iter_blocks():
        if not isinstance(block, QueryBlock):
            continue
        alias_tables = {
            item.alias: item.table_name.lower()
            for item in block.from_items
            if item.is_base_table
        }
        stats_ctx = _AliasStats(alias_tables, statistics)
        for conjunct in block.all_conjuncts():
            if not any(isinstance(n, ast.BindParam) for n in conjunct.walk()):
                continue
            peeked = conjunct_selectivity(conjunct, stats_ctx)
            pristine = conjunct.clone()
            for node in pristine.walk():
                if isinstance(node, ast.BindParam):
                    node.peeked = ast.NO_PEEK
            profile.append(
                BindPredicate(
                    text=render_expr(pristine),
                    conjunct=pristine,
                    alias_tables=dict(alias_tables),
                    peeked_selectivity=peeked,
                )
            )
    return profile


def max_drift(
    profile: Sequence[BindPredicate],
    binds: Mapping,
    statistics: StatisticsRegistry,
) -> float:
    """Largest selectivity ratio between the cached plan's peeked
    estimates and the estimates *binds* would get (1.0 = no drift)."""
    worst = 1.0
    for predicate in profile:
        fresh = predicate.selectivity_for(binds, statistics)
        if fresh is None:
            continue
        old = max(predicate.peeked_selectivity, 1e-6)
        new = max(fresh, 1e-6)
        worst = max(worst, old / new, new / old)
    return worst
