"""The cost-based query transformation framework (§3).

Drives the whole optimization of one query:

1. apply the heuristic (imperative) transformations to a fixpoint;
2. for each cost-based transformation, in the paper's sequential order:
   find its objects, build each object's *alternative list* (including
   interleaved and juxtaposed combinations, §3.3), pick a search strategy
   from the state-space size (§3.2), and search — each state is costed by
   copying the query tree, applying the state's alternatives, and
   invoking the physical optimizer with cost cut-off (§3.4.1) and cost
   annotation reuse (§3.4.2);
3. transfer the winning state's directives onto the original tree and
   re-run the cheap heuristic rules (a transformation can synthesise
   constructs that re-enable them, §3.1);
4. produce the final plan and an :class:`OptimizationReport`.

With ``enabled=False`` the framework reproduces the paper's *heuristic
mode* (§4.1): subquery unnesting follows the pre-10g rule, group-by view
merging is applied whenever legal, JPPD when an index motivates it, and
the never-heuristic transformations (group-by placement, predicate
pullup, set-op conversion, OR expansion, join factorization) are skipped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .. import env
from ..analysis import Diagnostic, TransformationAuditor
from ..analysis.qtree_verifier import expr_texts
from ..catalog.schema import Catalog
from ..errors import OptimizerError, TransformError
from ..obs.trace import Tracer
from ..optimizer.physical import CostBudgetExceeded, PhysicalOptimizer
from ..optimizer.plans import Plan
from ..qtree.blocks import QueryBlock, QueryNode
from ..resilience import (
    DegradationInfo,
    GovernorStats,
    SearchGovernor,
    blame,
    faults,
)
from ..sql import ast
from ..transform import apply_heuristic_phase
from ..transform.base import (
    TargetRef,
    Transformation,
    apply_everywhere,
    apply_guarded,
    find_block,
)
from ..transform.costbased import (
    GroupByViewMerging,
    JoinPredicatePushdown,
    UnnestSubqueryToView,
)
from ..transform.costbased.unnest_view import pre10g_heuristic_says_unnest
from ..transform.pipeline import build_cost_based_transformations
from .search import STRATEGIES, SearchResult, choose_strategy

ApplyFn = Callable[[QueryNode], QueryNode]


@dataclass(frozen=True)
class CbqtConfig:
    """Knobs of the cost-based transformation framework."""

    #: master switch: False reproduces pre-10g heuristic mode
    enabled: bool = True
    #: transformation names to disable entirely (both modes)
    disabled_transformations: frozenset[str] = frozenset()
    #: force one search strategy for every transformation (None = auto)
    search_strategy: Optional[str] = None
    #: abort costing a state once it exceeds the incumbent best (§3.4.1)
    cost_cutoff: bool = True
    #: interleave unnesting with view merging (§3.3.1)
    interleaving: bool = True
    #: juxtapose view merging with JPPD (§3.3.2)
    juxtaposition: bool = True
    #: paranoid mode: run the query-tree and plan verifiers around every
    #: transformation step and CBQT search state, raising
    #: :class:`~repro.errors.VerificationError` on any violation
    debug_checks: bool = field(
        default_factory=lambda: env.flag("REPRO_DEBUG_CHECKS", False)
    )


@dataclass
class Alternative:
    """One way to transform an object (index 0 is always 'untransformed')."""

    label: str
    apply: Optional[ApplyFn]  # None for the untransformed alternative
    #: the transformations *apply* performs, in order (their fault
    #: points fire and the first is blamed); empty when untransformed
    names: tuple[str, ...] = ()


@dataclass
class TransformObject:
    """One object a transformation applies to, with its alternatives."""

    order_key: tuple
    alternatives: list[Alternative]


@dataclass
class TransformationDecision:
    """Outcome of one cost-based transformation's state-space search."""

    transformation: str
    n_objects: int
    strategy: str
    states_evaluated: int
    best_state: tuple[int, ...]
    best_cost: float
    baseline_cost: float
    applied_labels: list[str] = field(default_factory=list)
    #: full search trace: state vector -> estimated cost (inf = aborted
    #: by the cost cut-off or an inapplicable alternative combination)
    state_costs: dict[tuple[int, ...], float] = field(default_factory=dict)

    @property
    def changed_query(self) -> bool:
        return any(self.best_state)


@dataclass
class OptimizationReport:
    """Everything the facade exposes about one optimization."""

    transformed_sql: str = ""
    decisions: list[TransformationDecision] = field(default_factory=list)
    total_states: int = 0
    heuristic_mode: bool = False
    elapsed_seconds: float = 0.0
    final_cost: float = 0.0
    #: sanitizer findings (warnings in paranoid mode, everything when
    #: auditing without raising — the ``check`` subcommand's path)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: set by the degradation ladder when this plan was produced via
    #: fallback (level, blamed transformations, reason)
    degradation: Optional[DegradationInfo] = None
    #: transformations skipped because the quarantine registry disabled
    #: them for this statement
    quarantined: list[str] = field(default_factory=list)
    #: search-governor accounting (None when no governor was armed)
    governor: Optional[GovernorStats] = None
    #: blocks the physical optimizer actually planned for this statement
    blocks_optimized: int = 0
    #: join-order enumerations run (annotation hits skip the enumerator,
    #: so this — not total_states — is the optimization-time currency)
    join_enumerations: int = 0

    def decision_for(self, name: str) -> Optional[TransformationDecision]:
        for decision in self.decisions:
            if decision.transformation == name:
                return decision
        return None


class CbqtFramework:
    """Optimizes one statement: ``Database._optimize_attempt`` builds one
    per attempt, around that attempt's physical optimizer (whose
    annotation store the framework clears per query, keeping it only
    across states — §3.4.3)."""

    def __init__(
        self,
        catalog: Catalog,
        physical: PhysicalOptimizer,
        config: Optional[CbqtConfig] = None,
        auditor: Optional[TransformationAuditor] = None,
        governor: Optional[SearchGovernor] = None,
        tracer: Optional[Tracer] = None,
    ):
        self._catalog = catalog
        self._physical = physical
        self.config = config or CbqtConfig()
        if auditor is None and self.config.debug_checks:
            auditor = TransformationAuditor(catalog)
        #: None unless paranoid mode — every call site is guarded on it,
        #: so debug_checks=False costs nothing on the optimize path
        self._auditor = auditor
        #: None unless a deadline/state budget/cancel token is armed —
        #: the idle search path pays one ``is None`` test per state
        self._governor = governor
        #: None unless tracing is armed (``Database.tracing()``) — same
        #: guard discipline, so the untraced path emits nothing
        self._tracer = tracer

    # -- public ---------------------------------------------------------------

    def optimize(self, root: QueryNode) -> tuple[QueryNode, Plan, OptimizationReport]:
        config = self.config
        report = OptimizationReport(heuristic_mode=not config.enabled)
        started = time.perf_counter()
        self._physical.annotations.clear()
        counters = self._physical.counters
        blocks_before = counters.blocks_optimized
        enumerations_before = counters.join_orders_considered

        auditor = self._auditor
        if auditor is not None:
            auditor.audit_tree(root, "input")

        root = self._heuristic_phase(root)

        transformations = [
            t for t in build_cost_based_transformations(self._catalog)
            if t.name not in config.disabled_transformations
        ]
        if config.enabled:
            total_objects = sum(
                len(t.find_targets(root)) for t in transformations
            )
            for transformation in transformations:
                root = self._run_cost_based(
                    transformation, root, total_objects, report
                )
        else:
            root = self._heuristic_fallbacks(root, transformations, report)

        plan = self._physical.optimize(root)
        if auditor is not None:
            auditor.audit_tree(root, "final")
            auditor.audit_expr_caches(root, "final")
            auditor.audit_plan(plan, "final")
            report.diagnostics = list(auditor.report.diagnostics)
        if self._governor is not None:
            report.governor = self._governor.stats()
        report.transformed_sql = root.to_sql()
        report.final_cost = plan.cost
        report.blocks_optimized = counters.blocks_optimized - blocks_before
        report.join_enumerations = (
            counters.join_orders_considered - enumerations_before
        )
        report.elapsed_seconds = time.perf_counter() - started
        return root, plan, report

    # -- phases ---------------------------------------------------------------

    def _heuristic_phase(self, root: QueryNode) -> QueryNode:
        return apply_heuristic_phase(
            root, self._catalog, self.config.disabled_transformations,
            auditor=self._auditor, tracer=self._tracer,
        )

    def _run_cost_based(
        self,
        transformation: Transformation,
        root: QueryNode,
        total_objects: int,
        report: OptimizationReport,
    ) -> QueryNode:
        objects = self._build_objects(transformation, root)
        if not objects:
            return root

        strategy_name = self.config.search_strategy or choose_strategy(
            len(objects), total_objects
        )
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                "cbqt.search",
                transformation=transformation.name,
                strategy=strategy_name,
                objects=len(objects),
                alternatives=[
                    [alt.label for alt in obj.alternatives] for obj in objects
                ],
            )

        # Anything escaping the search's infeasible-state net (injected
        # faults, verifier violations, costing bugs) is attributed to
        # this transformation for the ladder/quarantine, unless an inner
        # blame() already pinned a more specific culprit.
        with blame(transformation.name):
            result = self._search(
                strategy_name, objects, root, transformation.name
            )

        decision = TransformationDecision(
            transformation=transformation.name,
            n_objects=len(objects),
            strategy=strategy_name,
            states_evaluated=result.states_evaluated,
            best_state=result.best_state,
            best_cost=result.best_cost,
            baseline_cost=result.costs.get(
                tuple(0 for _ in objects), math.inf
            ),
            state_costs=dict(result.costs),
        )
        report.decisions.append(decision)
        report.total_states += result.states_evaluated

        if any(result.best_state):
            root = self._apply_state(root, objects, result.best_state)
            decision.applied_labels = [
                objects[i].alternatives[alt].label
                for i, alt in enumerate(result.best_state)
                if alt
            ]
            # A transformation may synthesise constructs that re-enable
            # the imperative rules (§3.1).
            root = self._heuristic_phase(root)
        if tracer is not None:
            tracer.emit(
                "cbqt.decision",
                transformation=transformation.name,
                best_state=result.best_state,
                best_cost=result.best_cost,
                baseline_cost=decision.baseline_cost,
                states_evaluated=result.states_evaluated,
                order=result.order,
                applied=decision.applied_labels,
            )
        return root

    def _search(
        self,
        strategy_name: str,
        objects: list[TransformObject],
        root: QueryNode,
        transformation_name: str,
    ) -> SearchResult:
        config = self.config
        governor = self._governor
        tracer = self._tracer
        auditor = self._auditor
        best_so_far = [math.inf]
        # every state's copy shares *root*'s expressions; paranoid mode
        # checks after each state that none was changed in place
        shared = expr_texts(root) if auditor is not None else []

        def trace_state(
            state: tuple[int, ...],
            cost: float,
            prune: Optional[str],
            hits_before: int = -1,
            misses_before: int = -1,
        ) -> None:
            stats = self._physical.annotations.stats
            assert tracer is not None
            tracer.emit(
                "cbqt.state",
                transformation=transformation_name,
                state=state,
                cost=cost,
                prune=prune,
                annotation_hits=(
                    stats.hits - hits_before if hits_before >= 0 else 0
                ),
                annotation_misses=(
                    stats.misses - misses_before if misses_before >= 0 else 0
                ),
            )

        def cost_fn(state: tuple[int, ...]) -> float:
            # Governor first: once the deadline or state budget is gone,
            # every remaining state is refused and the strategies drain
            # with the best-so-far incumbent (cancel tokens raise here).
            if governor is not None and not governor.admit():
                if tracer is not None:
                    trace_state(state, math.inf, "governor")
                return math.inf
            faults.check("cbqt.costing")
            budget = (
                best_so_far[0]
                if config.cost_cutoff and math.isfinite(best_so_far[0])
                else None
            )
            if tracer is not None:
                before = self._physical.annotations.stats
                hits_before, misses_before = before.hits, before.misses
            # VerificationError deliberately escapes this net: a state
            # whose rewrite corrupted the tree must abort the search, not
            # be silently costed at infinity.  So does everything that is
            # not plain state infeasibility (FaultInjected, timeouts) —
            # the degradation ladder, not this net, handles those.
            # CostBudgetExceeded before OptimizerError (its base class):
            # a budget abort is the §3.4.1 cut-off, not infeasibility.
            plan: Optional[Plan] = None
            try:
                candidate = self._apply_state(root.clone(), objects, state)
                plan = self._physical.optimize(candidate, budget)
            except CostBudgetExceeded:
                prune = "cost-cutoff"
            except (TransformError, OptimizerError):
                prune = "infeasible"
            if auditor is not None:
                auditor.audit_shared(root, shared, transformation_name, state)
            if plan is None:
                if tracer is not None:
                    trace_state(
                        state, math.inf, prune, hits_before, misses_before
                    )
                return math.inf
            if auditor is not None:
                auditor.audit_plan(plan, transformation_name, state)
            if plan.cost < best_so_far[0]:
                best_so_far[0] = plan.cost
            if tracer is not None:
                trace_state(
                    state, plan.cost, None, hits_before, misses_before
                )
            return plan.cost

        alternatives = [len(obj.alternatives) for obj in objects]
        result = STRATEGIES[strategy_name](alternatives, cost_fn)
        if (
            tracer is not None
            and governor is not None
            and governor.exhausted is not None
        ):
            tracer.emit(
                "cbqt.governor",
                transformation=transformation_name,
                **governor.stats().as_dict(),
            )
        return result

    def _apply_state(
        self,
        root: QueryNode,
        objects: list[TransformObject],
        state: tuple[int, ...],
    ) -> QueryNode:
        chosen = [
            (obj, alt) for obj, alt in zip(objects, state) if alt
        ]
        # Apply within a block in descending conjunct order so earlier
        # deletions do not shift later targets.
        chosen.sort(key=lambda pair: pair[0].order_key, reverse=True)
        for obj, alt in chosen:
            alternative = obj.alternatives[alt]
            assert alternative.apply is not None
            root = apply_guarded(
                alternative.names, alternative.apply, root,
                self._auditor, alternative.label, state,
            )
        return root

    # -- object/alternative construction -----------------------------------------

    def _build_objects(
        self, transformation: Transformation, root: QueryNode
    ) -> list[TransformObject]:
        targets = transformation.find_targets(root)
        objects = []
        for target in targets:
            alternatives = [Alternative("none", None)]
            alternatives.extend(
                self._alternatives_for(transformation, target, root)
            )
            if len(alternatives) > 1:
                objects.append(
                    TransformObject(_order_key(target), alternatives)
                )
        return objects

    def _alternatives_for(
        self, transformation: Transformation, target: TargetRef, root: QueryNode
    ) -> list[Alternative]:
        base = Alternative(
            f"{transformation.name}({target.describe()})",
            lambda node, t=transformation, tg=target: t.apply(node, tg),
            (transformation.name,),
        )
        alternatives = [base]

        disabled = self.config.disabled_transformations
        if (
            self.config.interleaving
            and isinstance(transformation, UnnestSubqueryToView)
            and "groupby_merge" not in disabled
            and transformation.target_kind(root, target) == "aggregate"
        ):
            interleaved = self._interleaved_unnest_merge(transformation, target)
            if interleaved is not None:
                alternatives.append(interleaved)

        if (
            self.config.juxtaposition
            and isinstance(transformation, GroupByViewMerging)
            and "jppd" not in disabled
        ):
            juxtaposed = self._juxtaposed_jppd(target, root)
            if juxtaposed is not None:
                alternatives.append(juxtaposed)

        return alternatives

    def _interleaved_unnest_merge(
        self, unnest: UnnestSubqueryToView, target: TargetRef
    ) -> Optional[Alternative]:
        """Unnesting followed by merging the generated view (§3.3.1):
        even when Q10 costs more than Q1, Q11 may beat both."""
        merger = GroupByViewMerging(self._catalog)

        def apply(node: QueryNode) -> QueryNode:
            before = {
                (t.block, t.key) for t in merger.find_targets(node)
            }
            node = unnest.apply(node, target)
            fresh = [
                t for t in merger.find_targets(node)
                if (t.block, t.key) not in before and t.block == target.block
            ]
            if not fresh:
                raise TransformError(
                    "interleaved merge: generated view is not mergeable"
                )
            for t in fresh:
                node = merger.apply(node, t)
            return node

        return Alternative(
            f"{unnest.name}+{merger.name}({target.describe()})",
            apply,
            (unnest.name, merger.name),
        )

    def _juxtaposed_jppd(
        self, target: TargetRef, root: QueryNode
    ) -> Optional[Alternative]:
        """View merging juxtaposed with JPPD on the same view (§3.3.2):
        the search compares none / merge / pushdown in one state space."""
        jppd = JoinPredicatePushdown(self._catalog)
        applicable = any(
            t.block == target.block and t.key == target.key
            for t in jppd.find_targets(root)
        )
        if not applicable:
            return None
        return Alternative(
            f"{jppd.name}({target.describe()})",
            lambda node, t=jppd, tg=target: t.apply(node, tg),
            (jppd.name,),
        )

    # -- heuristic mode (§4.1) -------------------------------------------------------

    def _heuristic_fallbacks(
        self,
        root: QueryNode,
        transformations: list[Transformation],
        report: OptimizationReport,
    ) -> QueryNode:
        for transformation in transformations:
            name = transformation.name
            if isinstance(transformation, GroupByViewMerging):
                # merged whenever legal
                root, applied = apply_everywhere(
                    transformation, root, self._auditor
                )
            elif isinstance(
                transformation, (UnnestSubqueryToView, JoinPredicatePushdown)
            ):
                targets = transformation.find_targets(root)
                if isinstance(transformation, UnnestSubqueryToView):
                    wanted = self._pre10g_unnest
                    # last conjunct first: unnesting one removes it from
                    # the WHERE list without shifting the earlier ones
                    targets.reverse()
                else:
                    wanted = self._jppd_index_motivated
                applied = []
                for target in targets:
                    if not wanted(root, target):
                        continue
                    root = apply_guarded(
                        (name,),
                        lambda node, t=transformation, tg=target: t.apply(node, tg),
                        root,
                        self._auditor,
                    )
                    applied.append(target)
            else:
                # group-by placement, predicate pullup, set-op conversion,
                # OR expansion and join factorization have no heuristic form
                continue
            if not applied:
                continue
            report.decisions.append(
                TransformationDecision(
                    name, len(applied), "heuristic",
                    1, (1,) * len(applied), math.nan, math.nan,
                    [target.describe() for target in applied],
                )
            )
            if not isinstance(transformation, JoinPredicatePushdown):
                root = self._heuristic_phase(root)
        return root

    def _pre10g_unnest(self, root: QueryNode, target: TargetRef) -> bool:
        """Heuristic unnesting: the pre-10g rule decides."""
        block = find_block(root, target.block)
        if block is None:
            return False
        conjunct = block.where_conjuncts[int(target.key)]  # type: ignore[arg-type]
        sub_block = _subquery_block_of(conjunct)
        return sub_block is not None and pre10g_heuristic_says_unnest(
            block, sub_block, self._catalog
        )

    def _jppd_index_motivated(self, root: QueryNode, target: TargetRef) -> bool:
        """Heuristic JPPD: push only when an index on an underlying base
        column would turn the lateral join into an index NL probe."""
        outer = find_block(root, target.block)
        if outer is None:
            return False
        node = outer.from_item(str(target.key)).subquery
        for block in node.iter_blocks():
            if not isinstance(block, QueryBlock):
                continue
            for sel in block.select_items:
                expr = sel.expr
                if not isinstance(expr, ast.ColumnRef) or expr.qualifier is None:
                    continue
                try:
                    inner_item = block.from_item(expr.qualifier)
                except TransformError:
                    continue
                if not inner_item.is_base_table:
                    continue
                if self._catalog.indexes_on(inner_item.table_name, expr.name):
                    return True
        return False


def _subquery_block_of(conjunct: ast.Expr) -> Optional[QueryBlock]:
    for node in conjunct.walk():
        if isinstance(node, ast.SubqueryExpr) and isinstance(
            node.query, QueryBlock
        ):
            return node.query
    return None


def _order_key(target: TargetRef) -> tuple:
    key = target.key
    if isinstance(key, int):
        return (target.block, target.kind, key)
    if isinstance(key, tuple):
        numeric = key[1] if len(key) > 1 and isinstance(key[1], int) else 0
        return (target.block, target.kind, numeric)
    return (target.block, target.kind, 0)
