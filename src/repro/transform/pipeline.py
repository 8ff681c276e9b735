"""Sequential transformation ordering (§3.1).

"In Oracle, transformations are generally applied in a sequential manner;
each transformation is applied on the entire query tree followed by
another transformation."  This module fixes that order for both the
heuristic phase and the cost-based phase, mirroring the paper's list:
SPJ view merging, join elimination, subquery unnesting, group-by
(distinct) view merging, predicate move around, set operator into join,
group-by placement, predicate pullup, join factorization, disjunction
into union-all, and join predicate pushdown.

Re-application: a transformation can synthesise constructs that make
earlier ones applicable again (e.g. set-op conversion creates an SPJ
view).  The heuristic phase therefore runs to a fixpoint, and the CBQT
driver re-runs SPJ merging after any cost-based transformation that
created new SPJ views.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..catalog.schema import Catalog
from ..qtree.blocks import QueryNode
from ..resilience import blame
from .base import Transformation, apply_everywhere

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..analysis import TransformationAuditor
    from ..obs.trace import Tracer
from .costbased import (
    GroupByPlacement,
    GroupByViewMerging,
    JoinFactorization,
    JoinPredicatePushdown,
    OrExpansion,
    PredicatePullup,
    SetOpIntoJoin,
    StarTransformation,
    UnnestSubqueryToView,
)
from .heuristic import (
    GroupPruning,
    JoinElimination,
    PredicateMoveAround,
    SpjViewMerging,
    SubqueryMergeUnnesting,
)

#: heuristic phase, in sequential order
HEURISTIC_ORDER = (
    SpjViewMerging,
    JoinElimination,
    SubqueryMergeUnnesting,
    PredicateMoveAround,
    GroupPruning,
)

#: cost-based phase, in sequential order
COST_BASED_ORDER = (
    UnnestSubqueryToView,
    GroupByViewMerging,
    SetOpIntoJoin,
    GroupByPlacement,
    PredicatePullup,
    JoinFactorization,
    OrExpansion,
    StarTransformation,
    JoinPredicatePushdown,
)


#: every transformation's name, both phases
TRANSFORMATION_NAMES = frozenset(
    cls.name for cls in HEURISTIC_ORDER + COST_BASED_ORDER
)


def build_heuristic_transformations(catalog: Catalog) -> list[Transformation]:
    return [cls(catalog) for cls in HEURISTIC_ORDER]


def build_cost_based_transformations(catalog: Catalog) -> list[Transformation]:
    return [cls(catalog) for cls in COST_BASED_ORDER]


def apply_heuristic_phase(
    root: QueryNode,
    catalog: Catalog,
    disabled: frozenset[str] = frozenset(),
    rounds: int = 4,
    auditor: "Optional[TransformationAuditor]" = None,
    tracer: "Optional[Tracer]" = None,
) -> QueryNode:
    """Run the heuristic transformations to a fixpoint.

    The *disabled* transformations are skipped.
    When an *auditor* is given (paranoid mode), the query tree is
    re-verified after every transformation that rewrote it, so a
    violation is blamed on the exact heuristic rule that introduced it.
    When a *tracer* is armed, every rewriting rule application emits a
    ``heuristic.rule`` event with the tree's before/after structural
    signatures; the untraced path computes neither.
    """
    transformations = [
        t for t in build_heuristic_transformations(catalog)
        if t.name not in disabled
    ]
    for round_no in range(rounds):
        changed = False
        for transformation in transformations:
            if tracer is not None:
                from ..qtree import signature

                before_sig = signature(root)
            root, applied = apply_everywhere(transformation, root)
            if not applied:
                continue
            changed = True
            if tracer is not None:
                tracer.emit(
                    "heuristic.rule",
                    rule=transformation.name,
                    round=round_no,
                    targets=len(applied),
                    before=before_sig,
                    after=signature(root),
                )
            if auditor is not None:
                with blame(transformation.name):
                    auditor.audit_tree(root, transformation.name)
        if not changed:
            break
    return root
