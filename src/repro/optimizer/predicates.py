"""Per-block predicate analysis: what planning needs to know about each
conjunct, derived once.

While one query block is planned, the same conjuncts are asked the same
questions many times — by the conjunct classification, by access-path
generation for every from-item, and by every step of join enumeration:
which of the block's aliases does it reference, does it contain a
subquery, is it an equi-join between these two sides?  None of the
answers change during the planning of the block, so a
:class:`PredicateAnalysis` answers each from one walk of the conjunct and
hands the result out as integers: every alias of the block is one bit,
and a reference to anything outside the block (an outer-correlation
parameter) is the single extra :attr:`~PredicateAnalysis.outer` bit.

An analysis lives exactly as long as one block optimisation.  Facts are
keyed by conjunct identity, and expression nodes are mutable objects
that transformations rewrite on cloned trees, so an analysis must never
be kept across CBQT states or statements.
"""

from __future__ import annotations

from operator import methodcaller
from typing import Callable, Iterable, Optional, Sequence

from ..sql import ast


_NODE_CORRELATION_REFS = methodcaller("correlation_refs")


class ConjunctFacts:
    """The analysis of one conjunct.

    ``mask`` is the set of block aliases the conjunct references,
    including the correlation references of subquery bodies inside it.
    For a comparison ``left <op> right`` the masks of the two sides are
    kept separately (these may carry the ``outer`` bit); ``equi`` marks a
    subquery-free ``=``, the only shape hash and merge joins can key on.

    ``selectivity`` and ``key_ndvs`` are estimates rather than structure:
    the join enumerator fills them in once every from-item of the block
    has statistics (a view's are derived from its plan).
    """

    __slots__ = (
        "conjunct", "mask", "has_subquery", "equi", "left_mask", "right_mask",
        "selectivity", "key_ndvs",
    )

    def __init__(self, conjunct: ast.Expr, mask: int, has_subquery: bool,
                 left_mask: int, right_mask: int):
        self.conjunct = conjunct
        self.mask = mask
        self.has_subquery = has_subquery
        self.equi = (
            not has_subquery
            and isinstance(conjunct, ast.BinOp) and conjunct.op == "="
        )
        self.left_mask = left_mask
        self.right_mask = right_mask
        #: clamped selectivity of the conjunct
        self.selectivity: Optional[float] = None
        #: ``(alias bit, NDV)`` per side of a ``col = col`` conjunct whose
        #: column has statistics (semijoin probe caching)
        self.key_ndvs: Sequence[tuple[int, float]] = ()


class PredicateAnalysis:
    """Alias bitmasks and conjunct facts for one query block."""

    def __init__(
        self,
        aliases: Iterable[str],
        correlation_refs: Callable[[object], list] = _NODE_CORRELATION_REFS,
    ):
        """*correlation_refs* maps a subquery body to its correlation
        references; the optimizer passes a per-call memoising version of
        the query node's own method."""
        #: alias -> bit, numbered in sorted alias order
        self.bits = {alias: 1 << i for i, alias in enumerate(sorted(set(aliases)))}
        #: the bit standing for every alias that is not this block's
        self.outer = 1 << len(self.bits)
        self._correlation_refs = correlation_refs
        self._facts: dict[int, ConjunctFacts] = {}

    def mask_of(self, aliases: Iterable[str]) -> int:
        """Bitmask of *aliases*; unknown ones collapse into ``outer``."""
        bits, outer, mask = self.bits, self.outer, 0
        for alias in aliases:
            mask |= bits.get(alias, outer)
        return mask

    def names(self, mask: int) -> set[str]:
        """The block aliases in *mask* (inverse of :meth:`mask_of`)."""
        return {alias for alias, bit in self.bits.items() if mask & bit}

    def facts(self, conjunct: ast.Expr) -> ConjunctFacts:
        """The (memoised) analysis of *conjunct*."""
        facts = self._facts.get(id(conjunct))
        if facts is None:
            if isinstance(conjunct, ast.BinOp) and conjunct.is_comparison:
                left, left_sub = self._scan(conjunct.left)
                right, right_sub = self._scan(conjunct.right)
                mask, has_subquery = left | right, left_sub or right_sub
            else:
                left = right = 0
                mask, has_subquery = self._scan(conjunct)
            # the facts keep the conjunct alive, so its id stays unique
            facts = self._facts[id(conjunct)] = ConjunctFacts(
                conjunct, mask & ~self.outer, has_subquery, left, right
            )
        return facts

    def _scan(self, expr: ast.Expr) -> tuple[int, bool]:
        """(alias mask incl. ``outer``, contains a subquery) of *expr* —
        :func:`repro.qtree.exprutil.aliases_referenced` and
        :func:`repro.sql.ast.contains_subquery` in one walk."""
        bits, outer = self.bits, self.outer
        mask, has_subquery = 0, False
        for node in expr.walk():
            if isinstance(node, ast.ColumnRef):
                if node.qualifier:
                    mask |= bits.get(node.qualifier, outer)
            elif isinstance(node, ast.SubqueryExpr):
                has_subquery = True
                if hasattr(node.query, "iter_blocks"):
                    for ref in self._correlation_refs(node.query):
                        if ref.qualifier:
                            mask |= bits.get(ref.qualifier, outer)
        return mask, has_subquery
