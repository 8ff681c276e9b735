"""Transformation auditor — paranoid-mode harness for the optimizer.

When ``debug_checks`` is enabled in :class:`repro.cbqt.CbqtConfig`, the
heuristic pipeline and the CBQT search hand every intermediate artifact
to one :class:`TransformationAuditor`: the input tree, the tree after
each heuristic rewrite, every candidate state the search costs (with its
transformation name and state bitvector), and the final physical plan.

The auditor attributes each violation to the exact rewrite step that
produced it and either raises :class:`~repro.errors.VerificationError`
immediately (``raise_on_error=True``, the paranoid default — a corrupted
tree must not reach costing) or just accumulates the diagnostics for a
``check``-style report.

Call sites are guarded (``if auditor is not None: ...``), so disabling
``debug_checks`` costs literally nothing on the optimize path — the
zero-overhead contract ``benchmarks/bench_debug_checks.py`` enforces.
"""

from __future__ import annotations

from typing import Optional

from ..catalog.schema import Catalog
from ..errors import VerificationError
from ..optimizer.plans import Plan
from ..qtree.blocks import QueryNode
from .diagnostics import Diagnostic, DiagnosticReport, attributed
from .plan_verifier import PlanVerifier
from .qtree_verifier import QTreeVerifier, expr_texts, verify_expr_caches


class TransformationAuditor:
    """Runs both verifiers around every transformation step."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        raise_on_error: bool = True,
        context: str = "transformation audit",
    ):
        self.report = DiagnosticReport(context=context)
        self.raise_on_error = raise_on_error
        self._qtree = QTreeVerifier(catalog)
        self._plans = PlanVerifier()

    # -- audit points -------------------------------------------------------

    def audit_tree(
        self,
        root: QueryNode,
        transformation: Optional[str] = None,
        state: Optional[tuple[int, ...]] = None,
    ) -> list[Diagnostic]:
        """Verify a query tree, attributing violations to the rewrite
        step (and CBQT state) that produced it."""
        return self._record(self._qtree.verify(root), transformation, state)

    def audit_plan(
        self,
        plan: Plan,
        transformation: Optional[str] = None,
        state: Optional[tuple[int, ...]] = None,
    ) -> list[Diagnostic]:
        """Verify a physical plan with the same attribution."""
        return self._record(self._plans.verify(plan), transformation, state)

    def audit_expr_caches(
        self, root: QueryNode, transformation: Optional[str] = None
    ) -> list[Diagnostic]:
        """Every expression's kept facts and text against a fresh walk and
        render (``qtree.expr-cache``)."""
        return self._record(verify_expr_caches(root), transformation, None)

    def audit_shared(
        self,
        root: QueryNode,
        snapshot: list[tuple[str, str]],
        transformation: str,
        state: tuple[int, ...],
    ) -> list[Diagnostic]:
        """After costing *state*: the searched tree, whose expressions
        each state copy shares, must render as in *snapshot*, its
        :func:`~.qtree_verifier.expr_texts` taken before the search
        (``qtree.shared-mutated``)."""
        diagnostics = []
        now = expr_texts(root)
        if now != snapshot:
            for (block, before), (_name, after) in zip(snapshot, now, strict=False):
                if before != after:
                    message = (
                        f"expression {before!r} of the searched tree now "
                        f"renders {after!r}"
                    )
                    break
            else:
                block, message = "", (
                    f"the searched tree now has {len(now)} expressions, "
                    f"not {len(snapshot)}"
                )
            diagnostics.append(Diagnostic(
                "qtree.shared-mutated", "error", message, node=block,
            ))
        return self._record(diagnostics, transformation, state)

    # -- internals ----------------------------------------------------------

    def _record(
        self,
        diagnostics: list[Diagnostic],
        transformation: Optional[str],
        state: Optional[tuple[int, ...]],
    ) -> list[Diagnostic]:
        diagnostics = attributed(diagnostics, transformation, state)
        self.report.extend(diagnostics)
        errors = [d for d in diagnostics if d.is_error]
        if errors and self.raise_on_error:
            raise VerificationError(
                "; ".join(d.format() for d in errors[:3])
                + (f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""),
                diagnostics=errors,
            )
        return diagnostics
