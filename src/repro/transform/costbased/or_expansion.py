"""Disjunction into UNION ALL — OR-expansion (§2.2.8).

A top-level OR conjunct ``d1 OR d2 OR ... OR dk`` in an SPJ block is
expanded into a UNION ALL of k copies of the block, branch *i* keeping
``d_i AND LNNVL(d_1) AND .. AND LNNVL(d_{i-1})``.  ``LNNVL(p)`` is true
when *p* is false or unknown (Oracle's function), which makes the
branches disjoint without changing NULL semantics, so no duplicate
elimination is needed.

Without the expansion the disjunction is applied as a post-filter over
what may be a Cartesian product; each expanded branch instead lets the
optimizer drive an index from its own disjunct.  The expansion multiplies
the number of blocks to optimize and scans the non-driving tables once
per branch — hence cost-based.

Only SPJ blocks are expanded (aggregation above a UNION ALL would need an
extra rollup), and the disjunct count is capped.
"""

from __future__ import annotations

from ...errors import TransformError
from ...qtree.blocks import QueryBlock, QueryNode, SetOpBlock
from ...sql import ast
from ..base import TargetRef, Transformation, iter_nodes_with_replacers

#: do not expand disjunctions wider than this
MAX_DISJUNCTS = 8


class OrExpansion(Transformation):
    name = "or_expansion"
    cost_based = True

    def find_targets(self, root: QueryNode) -> list[TargetRef]:
        targets = []
        for node, _replace in iter_nodes_with_replacers(root):
            if not isinstance(node, QueryBlock):
                continue
            for i, conjunct in enumerate(node.where_conjuncts):
                if self._expandable(node, conjunct):
                    targets.append(TargetRef(node.name, "conjunct", i))
        return targets

    def _expandable(self, block: QueryBlock, conjunct: ast.Expr) -> bool:
        if not isinstance(conjunct, ast.Or):
            return False
        if not 2 <= len(conjunct.operands) <= MAX_DISJUNCTS:
            return False
        if ast.contains_subquery(conjunct):
            return False
        if not block.is_spj:
            return False
        if block.order_by:
            return False
        if any(not item.is_inner for item in block.from_items):
            return False
        return True

    def apply(self, root: QueryNode, target: TargetRef) -> QueryNode:
        for node, replace in iter_nodes_with_replacers(root):
            if not isinstance(node, QueryBlock) or node.name != target.block:
                continue
            index = int(target.key)  # type: ignore[arg-type]
            if index >= len(node.where_conjuncts):
                raise TransformError(f"{self.name}: conjunct index out of range")
            conjunct = node.where_conjuncts[index]
            if not self._expandable(node, conjunct):
                raise TransformError(f"{self.name}: conjunct is not expandable")
            del node.where_conjuncts[index]
            expanded = expand_or(node, conjunct)
            if replace is None:
                return expanded
            replace(expanded)
            return root
        raise TransformError(f"{self.name}: block {target.block!r} not found")


def expand_or(block: QueryBlock, disjunction: ast.Or) -> SetOpBlock:
    """Build the UNION ALL of per-disjunct copies of *block*."""
    branches: list[QueryNode] = []
    for i, disjunct in enumerate(disjunction.operands):
        branch = block.clone()
        # Block names must stay unique within one tree so TargetRef paths
        # of later transformations resolve unambiguously.
        for nested in branch.iter_blocks():
            nested.name = f"{nested.name}$or{i + 1}"
        branch.where_conjuncts.append(disjunct.clone())
        for earlier in disjunction.operands[:i]:
            branch.where_conjuncts.append(
                ast.FuncCall("LNNVL", [earlier.clone()])
            )
        branches.append(branch)
    return SetOpBlock("UNION ALL", branches)
