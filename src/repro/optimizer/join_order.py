"""Join-order enumeration for one query block.

Left-deep dynamic programming over alias subsets (System-R style), with a
greedy fallback above a size threshold.  The enumerator honours the
partial orders the paper describes for non-commutative joins: a LEFT /
SEMI / ANTI from-item may only be placed after every alias its ON
condition references (§2.1.1), and a lateral view produced by join
predicate pushdown must follow the aliases it references and joins by
nested loops only (§2.2.3).

Per step it considers three join methods — nested loops (including index
NL when a parameterised index path's dependencies are satisfied), hash,
and sort-merge — and models the semijoin/antijoin execution properties
the paper calls out: stop-at-first-match and caching of results for
duplicate left-side keys.

Residual predicates that could not be embedded in scans or joins
(correlated subquery predicates evaluated under TIS, expensive functions)
arrive as :class:`PendingFilter` objects with a precomputed per-row cost
and are applied at the earliest state whose alias set covers them.

CBQT costs every transformation state by running this enumeration, so a
step must be cheap (§3.4).  Everything a step asks of the predicates and
paths is therefore analysed once, up front
(:class:`~repro.optimizer.predicates.PredicateAnalysis`): alias subsets,
conjunct references, path dependencies and pending-filter coverage are
integers with one bit per alias, every candidate of a step is costed as
plain ``(cost, cardinality)`` arithmetic, and plan nodes are built only
for a step that beats the incumbent of its subset.  Choices are
deterministic: aliases are tried in sorted order, a path's candidates in
the order NL, hash, merge, and the first minimum wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, NoReturn, Optional

from ..errors import OptimizerError
from ..qtree import exprutil
from ..sql import ast
from .costmodel import CostModel
from .plans import (
    Filter,
    HashJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    Plan,
    ViewScan,
)
from .predicates import ConjunctFacts, PredicateAnalysis
from .selectivity import StatsContext, conjunct_selectivity

#: DP is used up to this many from-items; greedy above.
DEFAULT_DP_THRESHOLD = 8


@dataclass
class Relation:
    """One from-item prepared for join enumeration."""

    alias: str
    paths: list[Plan]
    join_type: str = "INNER"
    join_conjuncts: list[ast.Expr] = field(default_factory=list)
    required_predecessors: set[str] = field(default_factory=set)

    @property
    def is_inner(self) -> bool:
        return self.join_type == "INNER"


@dataclass
class PendingFilter:
    """A residual conjunct with its evaluation cost per input row."""

    conjunct: ast.Expr
    local_refs: set[str]
    selectivity: float
    per_row_cost: float


class _Path(NamedTuple):
    """One access path of a relation, with what a join step needs of it."""

    plan: Plan
    #: block aliases that must be joined before this path is usable
    deps: int
    #: aliases the path's rows expose
    aliases: int
    #: ids of the conjuncts an index probe consumes (not re-applied)
    covered: frozenset[int]


class _Rel(NamedTuple):
    """A relation as the enumerator sees it: all masks and fact lists."""

    bit: int
    join_type: str
    #: aliases that must precede it (partial order of non-inner joins)
    predecessors: int
    paths: list[_Path]
    #: INNER: the WHERE join conjuncts mentioning this alias, each usable
    #: once the rest of its mask is joined; otherwise the ON condition
    conjuncts: list[ConjunctFacts]


class _State(NamedTuple):
    """The best plan found for one alias subset."""

    plan: Plan
    #: aliases whose columns the plan exposes: the subset minus
    #: semi/anti-joined aliases
    visible: int


class JoinOrderEnumerator:
    def __init__(
        self,
        relations: list[Relation],
        join_conjuncts: list[ast.Expr],
        filters: list[PendingFilter],
        stats: StatsContext,
        cost_model: CostModel,
        dp_threshold: int = DEFAULT_DP_THRESHOLD,
        budget: Optional[float] = None,
        analysis: Optional[PredicateAnalysis] = None,
    ):
        by_alias = {r.alias: r for r in relations}
        if analysis is None:
            analysis = PredicateAnalysis(by_alias)
        self._analysis = analysis
        self._stats = stats
        self._cm = cost_model
        self._dp_threshold = dp_threshold
        self._budget = budget
        self._filters = [(analysis.mask_of(f.local_refs), f) for f in filters]
        join_facts = [self._estimated(c) for c in join_conjuncts]
        #: in sorted alias order, which is also ascending bit order
        self._rels = [
            self._prepare(by_alias[alias], join_facts) for alias in sorted(by_alias)
        ]

    def _prepare(self, relation: Relation, join_facts: list[ConjunctFacts]) -> _Rel:
        analysis = self._analysis
        bit = analysis.bits[relation.alias]
        if relation.is_inner:
            conjuncts = [f for f in join_facts if f.mask & bit]
        else:
            conjuncts = [
                self._estimated(c, probe_keys=True)
                for c in relation.join_conjuncts
            ]
        paths = [
            _Path(
                path,
                analysis.mask_of(_path_dependencies(path)) & ~analysis.outer,
                analysis.mask_of(path.aliases),
                frozenset(id(c) for c in getattr(path, "covered_conjuncts", ())),
            )
            for path in relation.paths
        ]
        return _Rel(
            bit, relation.join_type,
            analysis.mask_of(relation.required_predecessors), paths, conjuncts,
        )

    def _estimated(
        self, conjunct: ast.Expr, probe_keys: bool = False
    ) -> ConjunctFacts:
        """Facts of a join conjunct, with the estimates filled in
        (*probe_keys*: also the key NDVs only semi/anti joins use)."""
        facts = self._analysis.facts(conjunct)
        if facts.selectivity is None:
            facts.selectivity = conjunct_selectivity(conjunct, self._stats)
        if probe_keys and not facts.key_ndvs:
            facts.key_ndvs = key_ndvs = []
            for col in exprutil.equality_columns(conjunct) or ():
                bit = self._analysis.bits.get(col.qualifier)
                col_stats = self._stats.column_stats(col.qualifier, col.name) \
                    if bit else None
                if col_stats is not None and col_stats.num_distinct:
                    key_ndvs.append((bit, col_stats.num_distinct))
        return facts

    # -- public -----------------------------------------------------------

    def best_plan(self) -> Plan:
        rels = self._rels
        if not rels:
            raise OptimizerError("query block has no from-items")
        if len(rels) == 1:
            state = self._leaf(rels[0])
            if state is None:
                alias = self._analysis.names(rels[0].bit).pop()
                raise OptimizerError(f"no usable access path for {alias!r}")
            return state.plan
        if len(rels) <= self._dp_threshold:
            return self._dp()
        return self._greedy()

    # -- leaf handling -------------------------------------------------------

    def _leaf(self, rel: _Rel) -> Optional[_State]:
        """*rel* leading the join order: its cheapest unparameterised
        path, if it may lead at all."""
        if rel.join_type != "INNER" or rel.predecessors:
            return None
        candidates = [path for path in rel.paths if not path.deps]
        if not candidates:
            return None
        best = min(candidates, key=lambda path: path.plan.cost)
        plan = best.plan
        for mask, pending in self._filters:
            if not mask & ~rel.bit:
                plan = _filtered(plan, pending)
        return _State(plan, best.aliases)

    # -- DP -----------------------------------------------------------------

    def _dp(self) -> Plan:
        rels = self._rels
        # levels[k]: subsets of k aliases in order of first discovery,
        # which is the order the next level extends them in
        levels: list[dict[int, _State]] = [{} for _ in range(len(rels) + 1)]
        for rel in rels:
            state = self._leaf(rel)
            if state is not None:
                levels[1][rel.bit] = state
        for size in range(1, len(rels)):
            reached = levels[size + 1]
            for subset, state in levels[size].items():
                for rel in rels:
                    if subset & rel.bit:
                        continue
                    incumbent = reached.get(subset | rel.bit)
                    candidate = self._extend(
                        state, subset, rel,
                        None if incumbent is None else incumbent.plan.cost,
                    )
                    if candidate is not None:
                        reached[subset | rel.bit] = candidate
        final = levels[-1].get(sum(rel.bit for rel in rels))
        if final is None:
            self._fail(
                "every join order exceeded the cost budget",
                "no valid join order (unsatisfiable partial order constraints)",
            )
        return final.plan

    def _greedy(self) -> Plan:
        remaining = list(self._rels)
        state: Optional[_State] = None
        lead: Optional[_Rel] = None
        for rel in remaining:  # cheapest viable leader
            leaf = self._leaf(rel)
            if leaf is not None and (
                state is None or leaf.plan.cost < state.plan.cost
            ):
                state, lead = leaf, rel
        if state is None or lead is None:
            raise OptimizerError("no relation can lead the join order")
        covered = lead.bit
        remaining.remove(lead)
        while remaining:
            step: Optional[_State] = None
            joined: Optional[_Rel] = None
            for rel in remaining:
                candidate = self._extend(
                    state, covered, rel,
                    None if step is None else step.plan.cost,
                )
                if candidate is not None:
                    step, joined = candidate, rel
            if step is None or joined is None:
                self._fail(
                    "every greedy join step exceeded the cost budget",
                    "greedy join ordering got stuck on partial-order constraints",
                )
            state = step
            covered |= joined.bit
            remaining.remove(joined)
        return state.plan

    def _fail(self, over_budget: str, stuck: str) -> NoReturn:
        if self._budget is not None:
            from .physical import CostBudgetExceeded

            raise CostBudgetExceeded(over_budget)
        raise OptimizerError(stuck)

    # -- join step -------------------------------------------------------------

    def _extend(
        self, left: _State, subset: int, rel: _Rel, limit: Optional[float]
    ) -> Optional[_State]:
        """Join *rel* to the plan of *subset* by the cheapest (path,
        method) and apply the pending filters that become evaluable.
        Returns None when the step is not allowed, or when it does not
        cost less than *limit* (no plan nodes are built then)."""
        if rel.predecessors & ~subset:
            return None
        left_plan, visible = left
        left_cost, left_card = left_plan.cost, left_plan.cardinality
        if self._budget is not None and left_cost > self._budget:
            return None
        cm = self._cm
        join_type = rel.join_type
        extended = subset | rel.bit
        if join_type == "INNER":
            conjuncts = [f for f in rel.conjuncts if not f.mask & ~extended]
        else:
            conjuncts = rel.conjuncts

        # (cost, cardinality, path, join node class, keys, non-key conjuncts)
        best: Optional[tuple] = None
        for path in rel.paths:
            if path.deps & ~subset:
                continue
            right = path.plan
            right_cost, right_card = right.cost, right.cardinality
            covered = path.covered
            residual = [
                f for f in conjuncts if id(f.conjunct) not in covered
            ] if covered else conjuncts

            # nested loops
            sel = 1.0
            for f in residual:
                sel *= f.selectivity
            out_card = _output_cardinality(join_type, left_card, right_card, sel)
            probes = max(left_card, 0.0)
            if join_type in ("SEMI", "ANTI", "ANTI_NA"):
                # Stop at first match + result caching for duplicate left keys.
                distinct_probes = min(
                    probes, _left_key_ndv(visible, left_card, residual)
                )
                cache_cost = probes * cm.tis_cache_probe
            else:
                distinct_probes = probes
                cache_cost = 0.0
            # A parameterised path's cost and cardinality are per probe.
            per_probe = right_cost if path.deps else right_card * cm.pipeline_row
            stop_factor = 0.5 if join_type == "SEMI" else 1.0
            inner_cost = distinct_probes * per_probe * stop_factor
            predicate_cost = (
                distinct_probes * right_card * cm.predicate_eval
                * max(len(residual), 1) * stop_factor
            )
            setup_cost = 0.0 if path.deps else right_cost
            cost = (
                left_cost
                + setup_cost
                + inner_cost
                + predicate_cost
                + cache_cost
                + out_card * cm.pipeline_row
            )
            if best is None or cost < best[0]:
                best = (cost, out_card, path, NestedLoopJoin, None, residual)
            if path.deps:
                continue

            keys, rest = _equi_split(visible, path.aliases, residual)
            if not keys:
                continue
            sel = 1.0
            for f, _swapped in keys:
                sel *= f.selectivity
            for f in rest:
                sel *= f.selectivity
            out_card = _output_cardinality(join_type, left_card, right_card, sel)
            # The null-aware antijoin needs full three-valued evaluation
            # of the condition; hashing can only model it for a single
            # bare key with no residual (the NOT IN case), and merge not
            # at all.
            if join_type != "ANTI_NA" or (len(keys) == 1 and not rest):
                cost = (
                    left_cost
                    + right_cost
                    + cm.hash_build_cost(right_card)
                    + cm.hash_probe_cost(left_card)
                    + left_card * cm.predicate_eval * len(rest)
                    + out_card * cm.pipeline_row
                )
                if cost < best[0]:
                    best = (cost, out_card, path, HashJoin, keys, rest)
            if join_type != "ANTI_NA":
                cost = (
                    left_cost
                    + right_cost
                    + cm.sort_cost(left_card)
                    + cm.sort_cost(right_card)
                    + (left_card + right_card) * cm.pipeline_row
                    + out_card * cm.pipeline_row
                )
                if cost < best[0]:
                    best = (cost, out_card, path, MergeJoin, keys, rest)
        if best is None:
            return None

        cost, card, path, join, keys, applied = best
        newly = [
            pending for mask, pending in self._filters
            if not mask & ~extended and mask & ~subset
        ]
        total = cost
        rows = card
        for pending in newly:
            total = total + rows * pending.per_row_cost
            rows = rows * pending.selectivity
        if limit is not None and not total < limit:
            return None

        if keys is None:
            plan: Plan = NestedLoopJoin(
                left_plan, path.plan, join_type,
                [f.conjunct for f in applied], cost, card,
            )
        else:
            left_keys = [
                f.conjunct.right if swapped else f.conjunct.left
                for f, swapped in keys
            ]
            right_keys = [
                f.conjunct.left if swapped else f.conjunct.right
                for f, swapped in keys
            ]
            plan = join(
                left_plan, path.plan, join_type, left_keys, right_keys,
                [f.conjunct for f in applied], cost, card,
            )
        for pending in newly:
            plan = _filtered(plan, pending)
        if join_type in ("INNER", "LEFT"):
            visible |= path.aliases
        return _State(plan, visible)


def _filtered(plan: Plan, pending: PendingFilter) -> Filter:
    rows_in = plan.cardinality
    return Filter(
        plan, [pending.conjunct],
        plan.cost + rows_in * pending.per_row_cost,
        rows_in * pending.selectivity,
    )


def _output_cardinality(
    join_type: str, left_card: float, right_card: float, sel: float
) -> float:
    # A parameterised path's cardinality is rows *per probe*, so the
    # product form below covers both cases.
    inner_card = left_card * right_card * sel
    if join_type == "INNER":
        return inner_card
    if join_type == "LEFT":
        return max(left_card, inner_card)
    match_prob = min(1.0, right_card * sel)
    if join_type == "SEMI":
        return left_card * match_prob
    return left_card * (1.0 - match_prob)  # ANTI / ANTI_NA


def _left_key_ndv(
    visible: int, left_card: float, conjuncts: list[ConjunctFacts]
) -> float:
    """Distinct left-side key combinations, for semijoin caching."""
    ndv = 1.0
    found = False
    for facts in conjuncts:
        for bit, distinct in facts.key_ndvs:
            if bit & visible:
                ndv *= distinct
                found = True
    if not found:
        return left_card
    return min(ndv, max(left_card, 1.0))


def _path_dependencies(path: Plan) -> set[str]:
    if isinstance(path, IndexScan):
        return path.outer_aliases()
    if isinstance(path, ViewScan):
        return set(path.lateral_refs)
    return set()


def _equi_split(
    left_aliases: int, right_aliases: int, conjuncts: list[ConjunctFacts]
) -> tuple[list[tuple[ConjunctFacts, bool]], list[ConjunctFacts]]:
    """Split conjuncts into hash keys and residuals.  A key is an
    equi-conjunct with one side over the left aliases only and the other
    over the right aliases only; it is *swapped* when the conjunct's
    right-hand side is the left input's key."""
    keys: list[tuple[ConjunctFacts, bool]] = []
    rest: list[ConjunctFacts] = []
    for facts in conjuncts:
        left, right = facts.left_mask, facts.right_mask
        if facts.equi and left and right:
            if not left & ~left_aliases and not right & ~right_aliases:
                keys.append((facts, False))
                continue
            if not left & ~right_aliases and not right & ~left_aliases:
                keys.append((facts, True))
                continue
        rest.append(facts)
    return keys, rest
