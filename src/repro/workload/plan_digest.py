"""Structural plan digests for the plan-stability CI gate.

"Query Optimization in the Wild" (PAPERS.md) makes the operational
point: optimizer *speedups* that silently change chosen plans are
regressions in disguise, so a change that claims to leave plans alone
must prove it.  This module renders each chosen plan as a *structural
digest* — the operator ``label()`` tree, which carries join order,
access paths, and predicate placement but no cost/cardinality floats —
and the ``plan-digest`` CLI verb compares the paper-query corpus's
digests against a committed golden file
(``tests/golden/plan_digests.json``).  Any diff fails CI.

Digests are normalized for generated-name numbering: transformations
mint globally counted aliases (``vw$8``, ``gbp$2``, ``qb$17``), so the
same plan renders differently depending on how many optimizations ran
before it in the process.  :func:`normalize_generated_names` renumbers
every ``<prefix>$<n>`` token by order of first appearance, keeping
distinct views distinct while making the digest machine-independent.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Optional

from ..optimizer.plans import Plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..database import Database, OptimizerConfig

#: transformation-minted alias tokens: vw$8, gbp$2, qb$17, setop$3, ...
_GENERATED_NAME = re.compile(r"\b([A-Za-z_][A-Za-z_0-9]*)\$(\d+)\b")


def normalize_generated_names(text: str) -> str:
    """Renumber every ``<prefix>$<n>`` token by order of first
    appearance, so digests are independent of the process-global alias
    counters while distinct generated names stay distinct."""
    seen: dict[str, str] = {}

    def replace(match: re.Match) -> str:
        token = match.group(0)
        if token not in seen:
            seen[token] = f"{match.group(1)}${len(seen) + 1}"
        return seen[token]

    return _GENERATED_NAME.sub(replace, text)


def structural_digest(plan: Plan) -> str:
    """The plan's structural signature: the indented ``label()`` tree
    (operators, join order, access paths, predicate placement — no
    costs), with generated names normalized."""
    lines: list[str] = []

    def render(node: Plan, depth: int) -> None:
        lines.append("  " * depth + node.label())
        for child in node.children():
            render(child, depth + 1)

    render(plan, 0)
    return normalize_generated_names("\n".join(lines))


def corpus_digests(
    db: "Database", queries: dict[str, str],
    config: Optional["OptimizerConfig"] = None,
) -> dict[str, str]:
    """Digest of the chosen plan for every query in *queries* (name ->
    digest), optimized in sorted name order for determinism."""
    return {
        name: structural_digest(db.optimize(queries[name], config).plan)
        for name in sorted(queries)
    }
