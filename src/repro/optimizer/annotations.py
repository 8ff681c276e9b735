"""Reuse of query sub-tree cost annotations (§3.4.2).

Optimizing one transformation state re-optimizes only the query blocks a
transformation touched; all other blocks' plans and costs are *cost
annotations* reusable across states.  The store is keyed by the block's
structural signature (its deterministic SQL rendering), so two deep
copies of the same sub-tree — or the same untransformed subquery
appearing in several states, as in Table 1 of the paper — share one
optimization.

Per §3.4.3, annotations are the one optimizer structure that must survive
the per-state memory release, so the store lives outside any single
optimization pass and is explicitly cleared by the framework when a
transformation decision is final.

The store is statement-scoped and is the optimizer's only plan reuse:
nothing an optimization computed survives into the next hard parse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .plans import Plan


@dataclass
class AnnotationStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0


class AnnotationStore:
    """Signature-keyed cache of optimized plans (cost annotations)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._plans: dict[str, Plan] = {}
        self.stats = AnnotationStats()

    def get(self, sig: str) -> Optional[Plan]:
        if not self.enabled:
            return None
        plan = self._plans.get(sig)
        if plan is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return plan

    def put(self, sig: str, plan: Plan) -> None:
        if not self.enabled:
            return
        self.stats.stores += 1
        self._plans[sig] = plan

    def clear(self) -> None:
        self._plans.clear()

    def __len__(self) -> int:
        return len(self._plans)
